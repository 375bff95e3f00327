"""The campaign session: one plan/resume/settle/seal lifecycle.

A campaign is one repeatable lifecycle — plan, execute runs, journal,
recover, store (Sec. IV-C1, Fig. 3).  Both ways of executing it drive the
same :class:`CampaignSession`: the local worker pool
(:class:`repro.campaign.engine.CampaignEngine`) and the fleet coordinator
(:class:`repro.fabric.coordinator.FabricCoordinator`).  They differ only
in how a run reaches a worker — a pool future or a leased batch over
RPC.  The session owns the rest (DESIGN.md §8, §15):

open
    the treatment plan and its fingerprint; the resume check, or the
    refusal to reuse a directory that already holds a journal; the
    ``campaign_start`` entry and the session index; the scheduler and
    the telemetry.
settle a success
    ``run_complete`` is journaled first — the durable commit point —
    then the scheduler marks the run done, then telemetry counts it.  A
    crash between any two steps loses nothing ``--resume`` cannot
    rebuild.
settle a failure
    the node-attributed retry and quarantine policy.
seal
    the :class:`CampaignResult`, the single "N run(s) failed" error,
    ``campaign_complete`` and the merge through :func:`merge_campaign`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.journal import CampaignJournal
from repro.campaign.merge import SCOPE_NAME, apply_abort_reasons, load_scope_payload, merge_shards
from repro.campaign.scheduler import CampaignScheduler, RunTicket
from repro.campaign.telemetry import CampaignTelemetry
from repro.core.description import ExperimentDescription
from repro.core.errors import CampaignError, RecoveryError, extract_node_id
from repro.core.params import SpecialParams
from repro.core.plan import TreatmentPlan, generate_plan
from repro.faults.control import select_control_faults
from repro.storage.level2 import Level2Store

__all__ = ["CampaignResult", "CampaignSession", "merge_campaign"]


@dataclass
class CampaignResult:
    """What a sealed campaign session returns."""

    description: ExperimentDescription
    plan: TreatmentPlan
    campaign_dir: Path
    executed_runs: List[int] = field(default_factory=list)
    skipped_runs: List[int] = field(default_factory=list)
    failed_runs: Dict[int, str] = field(default_factory=dict)
    timed_out_runs: List[int] = field(default_factory=list)
    #: Wall-clock duration of this session, seconds.
    duration: float = 0.0
    jobs: int = 1
    pool: str = "thread"
    db_path: Optional[Path] = None
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def total_runs(self) -> int:
        return len(self.plan)

    def summary(self) -> Dict[str, Any]:
        return {
            "experiment": self.description.name,
            "total_runs": self.total_runs,
            "executed": len(self.executed_runs),
            "skipped": len(self.skipped_runs),
            "failed": len(self.failed_runs),
            "timed_out": len(self.timed_out_runs),
            "duration": self.duration,
            "jobs": self.jobs,
            "pool": self.pool,
        }


class CampaignSession:
    """One journal session of a campaign; constructing it opens it.

    Parameters
    ----------
    description, campaign_dir:
        What to run, and the directory holding the journal and shards.
    jobs:
        Requested worker count, capped by the description's
        ``max_parallel`` special parameter (Sec. IV-E).  A fleet passes
        1: its capacity is the workers', not the coordinator's.
    max_attempts, quarantine_after:
        Attempt budget per run; node-attributed failures before a node
        is quarantined (0 disables).
    resume:
        Continue the campaign journaled in *campaign_dir*.
    custom_treatments:
        Optional explicit treatment sequence (Sec. IV-C1).
    control_faults:
        Chaos plan for the control plane (see :mod:`repro.faults.control`),
        filtered per attempt and session by :meth:`start_run`.
    progress:
        Optional sink for telemetry progress lines (e.g. ``print``).
    salvage_requeue_loss:
        When resuming, re-queue journaled runs whose staged level-2 data
        lost more than this fraction of its records (``None`` trusts the
        journal).  Fleet entries have no staged level-2 data to probe.
    fence, epoch:
        The fleet's fencing: ``fence(commit)`` runs the durable part of a
        success (see :meth:`complete`) only while this coordinator still
        leads, and *epoch* is written into every ``run_complete`` entry.
    """

    def __init__(
        self,
        description: ExperimentDescription,
        campaign_dir,
        *,
        jobs: int = 1,
        max_attempts: int = 2,
        resume: bool = False,
        custom_treatments: Optional[List[Dict[str, Any]]] = None,
        control_faults: Optional[List[Dict[str, Any]]] = None,
        quarantine_after: int = 3,
        progress=None,
        salvage_requeue_loss: Optional[float] = None,
        fence: Optional[Callable[[Callable[[], None]], None]] = None,
        epoch: Optional[int] = None,
    ) -> None:
        self.started_at = time.monotonic()
        self.description = description
        self.campaign_dir = Path(campaign_dir)
        self.max_attempts = max_attempts
        self.control_faults = list(control_faults or [])
        self.fence = fence
        self.epoch = epoch
        self.journal = CampaignJournal(self.campaign_dir)
        self.plan = generate_plan(
            description.factors,
            description.seed,
            custom_treatments=custom_treatments,
        )
        plan_fp = self.plan.fingerprint()
        if resume:
            staged = self.journal.prepare_resume(description, len(self.plan), plan_fp)
            self.staged = self._filter_salvage_requeue(staged, salvage_requeue_loss)
        else:
            if self.journal.started():
                raise RecoveryError(
                    "campaign directory already holds a journal; pass "
                    "resume=True or use a fresh directory",
                )
            self.staged = {}
        #: This session's index in the journal (0 for a fresh campaign).
        self.index = self.journal.record_start(
            description.fingerprint(),
            description.seed,
            len(self.plan),
            plan_fp,
        )
        self.scheduler = CampaignScheduler(
            self.plan,
            completed=self.staged,
            jobs=jobs,
            max_parallel=SpecialParams(description.special_params).get("max_parallel"),
            max_attempts=max_attempts,
            quarantine_after=quarantine_after,
        )
        self.telemetry = CampaignTelemetry(total_runs=len(self.plan), emit=progress)
        self.telemetry.campaign_started(skipped=len(self.staged))
        self.timed_out: List[int] = []
        self._sealed = False

    def _filter_salvage_requeue(
        self,
        staged: Dict[int, Dict[str, Any]],
        threshold: Optional[float],
    ) -> Dict[int, Dict[str, Any]]:
        """Drop journaled runs whose staged data lost too much to salvage.

        A dropped run goes back through the scheduler exactly like a run
        that never completed; re-execution is deterministic, so the
        re-staged copy is byte-identical to what the lost records would
        have conditioned into.
        """
        if threshold is None:
            return staged
        kept: Dict[int, Dict[str, Any]] = {}
        for run_id, entry in sorted(staged.items()):
            if entry.get("store") is not None:
                probe = Level2Store(self.campaign_dir / entry["store"]).salvage_probe(run_id)
                total = probe["kept"] + probe["dropped"]
                if probe["dropped"] and total and probe["dropped"] / total > threshold:
                    self.journal.record_run_salvage_requeued(
                        run_id,
                        probe["kept"],
                        probe["dropped"],
                    )
                    continue
            kept[run_id] = entry
        return kept

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def start_run(self, ticket: RunTicket, worker: str) -> List[Dict[str, Any]]:
        """Journal a dispatched attempt; return the chaos entries it carries.

        Entries surviving the attempt/session filter reach the worker: a
        retry past an entry's ``max_attempt`` (or a resume past its
        sessions) runs clean.
        """
        self.journal.record_run_start(ticket.run_id, worker)
        self.telemetry.run_started(ticket.run_id, worker)
        return select_control_faults(
            self.control_faults,
            attempt=ticket.attempts,
            session=self.index,
        )

    def complete(
        self,
        run_id: int,
        worker: str,
        shard: str,
        store: Optional[str] = None,
        outcome: Optional[Dict[str, Any]] = None,
        stage: Optional[Callable[[], None]] = None,
    ) -> None:
        """Settle one successful run: journal, then scheduler, then telemetry.

        *shard* and *store* are the run's staged locations, relative to
        the campaign directory (*store* is ``None`` for a fleet run,
        whose shipped rows live only in the shard).  *stage* is the
        transport's own durable step before the journal entry — the
        fleet persists the scope payload and ingests the shipped rows —
        and runs with the entry inside the session's fence.  *outcome*
        carries the run's ``duration``, ``timed_out``, ``rpc_retries``,
        ``rpc_timeouts`` and ``phases``.
        """
        outcome = outcome or {}

        def commit() -> None:
            if stage is not None:
                stage()
            self.journal.record_run_complete(run_id, worker, store, shard, epoch=self.epoch)

        if self.fence is not None:
            self.fence(commit)
        else:
            commit()
        self.scheduler.mark_done(run_id)
        if outcome.get("timed_out"):
            self.timed_out.append(run_id)
        self.telemetry.run_completed(run_id, worker, float(outcome.get("duration", 0.0)))
        self.telemetry.rpc_stats(outcome.get("rpc_retries", 0), outcome.get("rpc_timeouts", 0))
        self.telemetry.run_phases(outcome.get("phases") or {})

    def fail(self, run_id: int, worker: str, error: str) -> bool:
        """Settle one failed attempt; True when the run was re-queued.

        A failure naming a quarantined node is terminal at once; each
        node-attributed failure counts towards that node's quarantine.
        """
        node_id = extract_node_id(error)
        terminal = node_id is not None and node_id in self.scheduler.quarantined_nodes
        attempt = self.scheduler.in_flight[run_id].attempts
        requeued = self.scheduler.mark_failed(run_id, error, terminal=terminal)
        self.journal.record_run_failed(run_id, error, attempt)
        self.telemetry.run_failed(run_id, worker, error, requeued)
        if node_id is not None and self.scheduler.record_node_failure(node_id):
            failures = self.scheduler.node_failures[node_id]
            self.journal.record_node_quarantined(node_id, failures)
            self.telemetry.node_quarantined(node_id, failures)
        return requeued

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------
    def seal(self, jobs: int, pool: str) -> CampaignResult:
        """Close a settled session: the result, or the one failure error.

        Raises :class:`CampaignError` (resumable state) when runs
        exhausted their attempt budgets; otherwise journals
        ``campaign_complete`` once.
        """
        scheduler = self.scheduler
        if not scheduler.finished:
            raise CampaignError("campaign still has unsettled runs")
        result = CampaignResult(
            description=self.description,
            plan=self.plan,
            campaign_dir=self.campaign_dir,
            executed_runs=sorted(scheduler.done),
            skipped_runs=sorted(self.staged),
            failed_runs=dict(scheduler.failed),
            timed_out_runs=sorted(self.timed_out),
            duration=time.monotonic() - self.started_at,
            jobs=jobs,
            pool=pool,
            telemetry=self.telemetry.summary(),
        )
        if result.failed_runs:
            failed = ", ".join(str(r) for r in sorted(result.failed_runs))
            raise CampaignError(
                f"{len(result.failed_runs)} run(s) failed after "
                f"{self.max_attempts} attempt(s): {failed}; fix the cause and "
                "resume the campaign",
            )
        if not self._sealed:
            self.journal.record_complete()
            self._sealed = True
        return result

    def merge(self, result: CampaignResult, db_path) -> None:
        """Merge a sealed session's shards into *db_path* (sets
        ``result.db_path`` and extends ``result.duration``)."""
        self.telemetry.merge_started(len(self.staged) + len(self.scheduler.done))
        result.db_path = merge_campaign(self.campaign_dir, db_path)
        result.duration = time.monotonic() - self.started_at


# ----------------------------------------------------------------------
# The merge
# ----------------------------------------------------------------------
def merge_campaign(campaign_dir, db_path) -> Path:
    """Merge a completed campaign's shards into *db_path*.

    The journal is the source map, so merging is repeatable at any time
    from the shards alone — also when the merge never ran or its output
    was deleted.
    """
    campaign_dir = Path(campaign_dir)
    journal = CampaignJournal(campaign_dir)
    if not journal.finished():
        raise CampaignError(
            "campaign is not complete; execute (or resume) it before merging",
        )
    sources = journal.completed()
    if not sources:
        raise CampaignError("journal holds no completed runs")
    run_sources = {run_id: campaign_dir / entry["shard"] for run_id, entry in sources.items()}
    merged = merge_shards(db_path, _resolve_scope(campaign_dir, sources), run_sources)
    _annotate_abort_reasons(journal, merged, sources)
    return merged


def _resolve_scope(campaign_dir: Path, sources: Dict[int, Dict[str, Any]]):
    """Locate the experiment-scope payload for a merge.

    The scope run is the plan's first (minimum run id) — the one run
    every campaign has.  A local entry points at its staging store; a
    fleet entry (``store: null``) means the scope was shipped from the
    worker that executed the scope run and persisted as ``scope.json``
    at the campaign root.  Both forms condition to identical scope rows,
    so local and fleet campaigns merge byte-identically.
    """
    entry = sources[min(sources)]
    if entry.get("store") is not None:
        return Level2Store(campaign_dir / entry["store"])
    return load_scope_payload(campaign_dir / SCOPE_NAME)


def _annotate_abort_reasons(journal: CampaignJournal, db_path, sources) -> None:
    """Write earlier attempts' failures into the merged RunInfos rows.

    Only runs that *did* complete are annotated — a run present in the
    database with a non-NULL ``AbortReason`` is a retry survivor, not a
    missing run.
    """
    reasons = {
        run_id: entry["error"]
        for run_id, entry in journal.failure_reasons().items()
        if run_id in sources
    }
    apply_abort_reasons(db_path, reasons)
