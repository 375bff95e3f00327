"""Parallel campaign execution: many runs, many workers, one database.

The serial :class:`~repro.core.master.ExperiMaster` executes a treatment
plan strictly in order inside one simulation kernel — wall-clock time
grows linearly with run count (the paper reports multi-day campaigns).
This package opens the "many concurrent runs" workload:

* :mod:`repro.campaign.scheduler` — partitions the plan into run tickets
  with priority/retry policies and capacity constraints;
* :mod:`repro.campaign.session` — the campaign lifecycle shared by the
  local pool and the fabric fleet: plan, resume, settle each run in the
  journal, seal and merge;
* :mod:`repro.campaign.engine` — executes tickets on a worker pool
  (threads or processes), each run inside its *own* fresh platform and
  kernel, so every run's data is a pure function of (description, run)
  and bit-identical regardless of worker count or completion order;
* :mod:`repro.campaign.journal` — a write-ahead JSONL journal extending
  :mod:`repro.core.recovery` semantics to concurrent execution, so a
  crashed campaign resumes exactly the aborted/unstarted runs;
* :mod:`repro.campaign.merge` — per-worker level-3 SQLite shards merged
  deterministically (ordered by run id, never by completion time) into
  the single experiment database of Table I;
* :mod:`repro.campaign.telemetry` — live progress (completed / failed /
  in-flight, throughput, ETA, per-worker status) for the CLI.
"""

from repro.campaign.engine import CampaignEngine, run_campaign
from repro.campaign.journal import CampaignJournal
from repro.campaign.merge import ShardWriter, database_digest, merge_shards
from repro.campaign.scheduler import CampaignScheduler, RunTicket
from repro.campaign.session import CampaignResult, CampaignSession, merge_campaign
from repro.campaign.telemetry import CampaignTelemetry

__all__ = [
    "CampaignEngine",
    "CampaignJournal",
    "CampaignResult",
    "CampaignScheduler",
    "CampaignSession",
    "CampaignTelemetry",
    "RunTicket",
    "ShardWriter",
    "database_digest",
    "merge_campaign",
    "merge_shards",
    "run_campaign",
]
