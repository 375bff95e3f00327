"""The campaign engine: concurrent run execution with worker pools.

Execution model
---------------
Every run executes inside its **own fresh platform and simulation
kernel**, driven by a single-run :class:`~repro.core.master.ExperiMaster`
(``only_runs={run_id}``) — the full ``experiment_init → run →
experiment_exit`` lifecycle of Fig. 3, but over exactly one run.  That
per-run isolation (the Dfuntest prerequisite for safe concurrency) is
what makes parallelism *free* of determinism cost: a run's data is a pure
function of (description, run id), so worker count, dispatch order and
completion order cannot influence a single byte of the merged database.

Pools
-----
``pool="thread"`` runs workers as threads in this process (cheap, shares
the page cache; ideal for the wall-clock-paced platform whose runs mostly
sleep).  ``pool="process"`` forks worker processes (true CPU parallelism
for the compute-bound pure-DES platform).  ``pool="auto"`` picks
processes for pure DES on multi-core hosts, threads otherwise.

Shard-slot affinity
-------------------
Workers never share an output file: the dispatch loop assigns each
in-flight ticket one of ``jobs`` shard slots, and a slot is reused only
after its previous ticket finished.  Each slot owns one staging directory
tree and one level-3 shard database — no SQLite contention, no locks.

Crash recovery
--------------
The parent process is the only journal writer.  A run is journaled
``run_complete`` only after its shard transaction committed; a crash
anywhere (worker or parent) therefore loses at most in-flight work, which
``--resume`` re-executes to byte-identical results.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaign.journal import CampaignJournal
from repro.campaign.merge import apply_abort_reasons, merge_shards
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.telemetry import CampaignTelemetry
from repro.core.description import ExperimentDescription
from repro.core.errors import CampaignError, RecoveryError, extract_node_id
from repro.faults.control import select_control_faults
from repro.core.params import SpecialParams
from repro.core.plan import TreatmentPlan, generate_plan
from repro.core.xmlio import description_to_xml
from repro.obs.metrics import get_registry
from repro.obs.trace import Tracer
from repro.storage.durable_log import DurableLog
from repro.storage.level2 import Level2Store

__all__ = ["CampaignEngine", "CampaignResult", "run_campaign", "merge_campaign"]


# ----------------------------------------------------------------------
# Worker side: a pure function of a picklable spec
# ----------------------------------------------------------------------
def _execute_ticket(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one run in an isolated platform; stage it into the shard.

    Runs inside a pool worker (thread or forked process).  The body lives
    in :func:`repro.core.master.execute_spec_run` — the same entry point
    fabric fleet workers drive (DESIGN.md §15) — so local pools and
    remote fleets execute byte-identical runs by construction.
    """
    from repro.core.master import execute_spec_run

    return execute_spec_run(spec)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """What :meth:`CampaignEngine.execute` returns."""

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


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class CampaignEngine:
    """Executes one experiment description as a parallel campaign.

    Parameters
    ----------
    description:
        The abstract experiment description.
    campaign_dir:
        Root directory holding the journal, per-slot staging stores and
        level-3 shards.
    jobs:
        Requested worker count; capped by the description's
        ``max_parallel`` special parameter (Sec. IV-E) when declared.
    pool:
        ``"thread"``, ``"process"`` or ``"auto"`` (see module docstring).
    config:
        Optional :class:`~repro.platforms.simulated.PlatformConfig`.
        With a process pool it must be picklable (the CLI's string-valued
        configs always are).
    realtime_factor:
        When set, runs execute on the wall-clock-paced
        :class:`~repro.platforms.localhost.LocalhostPlatform`.
    max_attempts:
        Attempt budget per run (1 = no retries).
    resume:
        Resume an aborted campaign found in *campaign_dir*.
    custom_treatments:
        Optional explicit treatment sequence (Sec. IV-C1).
    progress:
        Optional sink for telemetry progress lines (e.g. ``print``).
    abort_after_runs:
        Test/demo hook mirroring :class:`ExperiMaster`'s: simulate a
        crash after this many completions in this session.
    control_faults:
        Chaos plan for the control plane (see
        :mod:`repro.faults.control`); entries are filtered per attempt
        and session before reaching a worker's platform config.
    quarantine_after:
        Node-attributed failures before a node is quarantined
        (0 disables).
    salvage_requeue_loss:
        When resuming, probe each journaled run's staged level-2 data for
        corruption and re-queue runs whose dropped-record fraction
        exceeds this threshold (e.g. ``0.0`` re-queues on any loss,
        ``0.1`` tolerates up to 10%).  ``None`` (default) trusts the
        journal without probing.
    """

    def __init__(
        self,
        description: ExperimentDescription,
        campaign_dir,
        jobs: int = 1,
        pool: str = "auto",
        config=None,
        realtime_factor: Optional[float] = None,
        max_attempts: int = 2,
        resume: bool = False,
        custom_treatments: Optional[List[Dict[str, Any]]] = None,
        progress=None,
        abort_after_runs: Optional[int] = None,
        control_faults: Optional[List[Dict[str, Any]]] = None,
        quarantine_after: int = 3,
        salvage_requeue_loss: Optional[float] = None,
    ) -> None:
        if pool not in ("thread", "process", "auto"):
            raise CampaignError(f"unknown pool kind {pool!r}")
        self.description = description
        self.campaign_dir = Path(campaign_dir)
        self.jobs = jobs
        self.pool = self._resolve_pool(pool, realtime_factor)
        self.config = config
        self.realtime_factor = realtime_factor
        self.max_attempts = max_attempts
        self.resume = resume
        self.custom_treatments = custom_treatments
        self.progress = progress
        self.abort_after_runs = abort_after_runs
        self.control_faults = list(control_faults or [])
        self.quarantine_after = quarantine_after
        self.salvage_requeue_loss = salvage_requeue_loss
        self.journal = CampaignJournal(self.campaign_dir)

    @staticmethod
    def _resolve_pool(pool: str, realtime_factor: Optional[float]) -> str:
        if pool != "auto":
            return pool
        if realtime_factor is not None:
            # Wall-clock-paced runs sleep most of the time: threads
            # overlap them with no fork cost.
            return "thread"
        return "process" if (os.cpu_count() or 1) > 1 else "thread"

    # ------------------------------------------------------------------
    def execute(self, db_path=None) -> CampaignResult:
        """Run the campaign; optionally merge into *db_path* at the end."""
        started = time.monotonic()
        desc = self.description
        plan = generate_plan(
            desc.factors,
            desc.seed,
            custom_treatments=self.custom_treatments,
        )
        plan_fp = plan.fingerprint()

        if self.resume:
            staged = self.journal.prepare_resume(desc, len(plan), plan_fp)
            staged = self._filter_salvage_requeue(staged)
        else:
            if self.journal.started():
                raise RecoveryError(
                    "campaign directory already holds a journal; pass "
                    "resume=True or use a fresh directory",
                )
            staged = {}
        session = self.journal.record_start(
            desc.fingerprint(),
            desc.seed,
            len(plan),
            plan_fp,
        )

        scheduler = CampaignScheduler(
            plan,
            completed=staged,
            jobs=self.jobs,
            max_parallel=SpecialParams(desc.special_params).get("max_parallel"),
            max_attempts=self.max_attempts,
            quarantine_after=self.quarantine_after,
        )
        telemetry = CampaignTelemetry(total_runs=len(plan), emit=self.progress)
        telemetry.campaign_started(skipped=len(staged))

        # Engine-scope tracer: dispatch spans and worker-boundary error
        # spans (with full tracebacks) land in <campaign_dir>/traces.jsonl.
        # Per-run spans travel separately, through the workers' staging
        # stores into the shards' RunTraces table.
        tracer = Tracer(node="engine")
        campaign_wall_start = tracer.clock() if tracer.enabled else 0.0
        dispatch_started: Dict[int, float] = {}

        result = CampaignResult(
            description=desc,
            plan=plan,
            campaign_dir=self.campaign_dir,
            skipped_runs=sorted(staged),
            jobs=scheduler.effective_jobs,
            pool=self.pool,
        )
        sources: Dict[int, Dict[str, Any]] = dict(staged)
        description_xml = description_to_xml(desc)

        executor_cls = (
            concurrent.futures.ProcessPoolExecutor
            if self.pool == "process"
            else concurrent.futures.ThreadPoolExecutor
        )
        jobs = scheduler.effective_jobs
        completions = 0
        try:
            with executor_cls(max_workers=jobs) as executor:
                futures: Dict[concurrent.futures.Future, Any] = {}
                free_slots = list(range(jobs - 1, -1, -1))  # pop() -> slot 0 first

                def dispatch() -> None:
                    while free_slots:
                        ticket = scheduler.next_ticket()
                        if ticket is None:
                            return
                        slot = free_slots.pop()
                        label = f"s{session}w{slot:02d}"
                        spec = {
                            "campaign_dir": str(self.campaign_dir),
                            "description_xml": description_xml,
                            "custom_treatments": self.custom_treatments,
                            "config": self.config,
                            "realtime_factor": self.realtime_factor,
                            "run_id": ticket.run_id,
                            "store": f"staging/{label}/run_{ticket.run_id:06d}",
                            "shard": f"shards/{label}.db",
                            "lease_root": f"leases/run_{ticket.run_id:06d}",
                            # Chaos entries surviving the attempt/session
                            # filter: a retry past an entry's max_attempt
                            # (or a resume past its sessions) runs clean.
                            "control_faults": select_control_faults(
                                self.control_faults,
                                attempt=ticket.attempts,
                                session=session,
                            ),
                        }
                        self.journal.record_run_start(ticket.run_id, label)
                        telemetry.run_started(ticket.run_id, label)
                        if tracer.enabled:
                            dispatch_started[ticket.run_id] = tracer.clock()
                        future = executor.submit(_execute_ticket, spec)
                        futures[future] = (ticket, slot, label)

                dispatch()
                while futures:
                    done, _pending = concurrent.futures.wait(
                        futures,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                    for future in done:
                        ticket, slot, label = futures.pop(future)
                        free_slots.append(slot)
                        try:
                            res = future.result()
                        except Exception as exc:  # noqa: BLE001 - worker boundary
                            error = f"{type(exc).__name__}: {exc}"
                            node_id = extract_node_id(error)
                            terminal = (
                                node_id is not None
                                and node_id in scheduler.quarantined_nodes
                            )
                            requeued = scheduler.mark_failed(
                                ticket.run_id,
                                error,
                                terminal=terminal,
                            )
                            # The one-line `error` string is all the journal
                            # keeps; the error span preserves the traceback.
                            dispatch_started.pop(ticket.run_id, None)
                            tracer.record_error(
                                "campaign_worker",
                                exc,
                                run_id=ticket.run_id,
                                worker=label,
                                attempt=ticket.attempts,
                                requeued=requeued,
                                site="campaign_worker",
                            )
                            get_registry().counter(
                                "repro_campaign_worker_errors_total",
                                "Exceptions crossing the campaign worker "
                                "boundary",
                            ).inc()
                            self.journal.record_run_failed(
                                ticket.run_id,
                                error,
                                ticket.attempts,
                            )
                            telemetry.run_failed(
                                ticket.run_id,
                                label,
                                error,
                                requeued,
                            )
                            if node_id is not None and scheduler.record_node_failure(
                                node_id,
                            ):
                                self.journal.record_node_quarantined(
                                    node_id,
                                    scheduler.node_failures[node_id],
                                )
                                telemetry.node_quarantined(
                                    node_id,
                                    scheduler.node_failures[node_id],
                                )
                        else:
                            scheduler.mark_done(ticket.run_id)
                            self.journal.record_run_complete(
                                ticket.run_id,
                                label,
                                res["store"],
                                res["shard"],
                            )
                            telemetry.run_completed(
                                ticket.run_id,
                                label,
                                res["duration"],
                            )
                            telemetry.rpc_stats(
                                res.get("rpc_retries", 0),
                                res.get("rpc_timeouts", 0),
                            )
                            telemetry.run_phases(res.get("phases") or {})
                            # Fold a forked worker's metric delta into this
                            # process; a thread worker already wrote here.
                            if res.get("metrics") and res["pid"] != os.getpid():
                                get_registry().merge(res["metrics"])
                            if tracer.enabled:
                                t0 = dispatch_started.pop(ticket.run_id, None)
                                if t0 is not None:
                                    tracer.record(
                                        "campaign_run",
                                        t0,
                                        tracer.clock(),
                                        run_id=ticket.run_id,
                                        worker=label,
                                        slot=slot,
                                        attempt=ticket.attempts,
                                        timed_out=res["timed_out"],
                                    )
                            sources[ticket.run_id] = res
                            result.executed_runs.append(ticket.run_id)
                            if res["timed_out"]:
                                result.timed_out_runs.append(ticket.run_id)
                            completions += 1
                            if (
                                self.abort_after_runs is not None
                                and completions >= self.abort_after_runs
                                and not scheduler.finished
                            ):
                                raise CampaignError(
                                    f"aborting after {completions} runs "
                                    "(abort_after_runs)",
                                )
                    free_slots.sort(reverse=True)
                    dispatch()
        finally:
            result.executed_runs.sort()
            result.timed_out_runs.sort()
            result.failed_runs = dict(scheduler.failed)
            result.duration = time.monotonic() - started
            result.telemetry = telemetry.summary()
            if tracer.enabled:
                tracer.record(
                    "campaign",
                    campaign_wall_start,
                    tracer.clock(),
                    jobs=jobs,
                    pool=self.pool,
                    completed=len(result.executed_runs),
                    failed=len(result.failed_runs),
                )
            self._write_observability(tracer)

        if result.failed_runs:
            failed = ", ".join(str(r) for r in sorted(result.failed_runs))
            raise CampaignError(
                f"{len(result.failed_runs)} run(s) failed after "
                f"{self.max_attempts} attempt(s): {failed}; fix the cause and "
                "resume the campaign",
            )
        self.journal.record_complete()

        if db_path is not None:
            telemetry.merge_started(len(sources))
            result.db_path = self._merge(sources, db_path)
            result.duration = time.monotonic() - started
        return result

    # ------------------------------------------------------------------
    def _write_observability(self, tracer: Tracer) -> None:
        """Persist engine-scope spans and the metrics snapshot.

        ``traces.jsonl`` is appended (resumed sessions accumulate);
        ``metrics.json`` is replaced with this session's registry state.
        Best-effort on purpose: observability must never fail a campaign
        whose runs are already safely journaled.
        """
        try:
            records = tracer.drain_all()
            if records:
                DurableLog(self.campaign_dir / "traces.jsonl").append(records, fsync=False)
            snapshot = get_registry().snapshot()
            if snapshot:
                path = self.campaign_dir / "metrics.json"
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(snapshot, fh, indent=2, sort_keys=True)
                    fh.write("\n")
        except OSError:  # pragma: no cover - diagnostics only
            pass

    # ------------------------------------------------------------------
    def _filter_salvage_requeue(
        self,
        staged: Dict[int, Dict[str, Any]],
    ) -> Dict[int, Dict[str, Any]]:
        """Drop journaled runs whose staged data lost too much to salvage.

        A dropped run goes back through the scheduler exactly like a run
        that never completed; re-execution is deterministic, so the
        re-staged copy is byte-identical to what the lost records would
        have conditioned into.
        """
        threshold = self.salvage_requeue_loss
        if threshold is None:
            return staged
        kept_map: Dict[int, Dict[str, Any]] = {}
        for run_id, entry in sorted(staged.items()):
            probe = Level2Store(self.campaign_dir / entry["store"]).salvage_probe(
                run_id,
            )
            total = probe["kept"] + probe["dropped"]
            if probe["dropped"] and total and probe["dropped"] / total > threshold:
                self.journal.record_run_salvage_requeued(
                    run_id,
                    probe["kept"],
                    probe["dropped"],
                )
            else:
                kept_map[run_id] = entry
        return kept_map

    def _merge(self, sources: Dict[int, Dict[str, Any]], db_path) -> Path:
        if not sources:
            raise CampaignError("no staged runs to merge")
        run_sources = {
            run_id: self.campaign_dir / entry["shard"]
            for run_id, entry in sources.items()
        }
        merged = merge_shards(
            db_path,
            _resolve_scope(self.campaign_dir, sources),
            run_sources,
        )
        _annotate_abort_reasons(self.journal, merged, sources)
        return merged


# ----------------------------------------------------------------------
# Conveniences
# ----------------------------------------------------------------------
def run_campaign(description, campaign_dir, db_path=None, **kwargs) -> CampaignResult:
    """One-call convenience: build the engine, execute, merge."""
    return CampaignEngine(description, campaign_dir, **kwargs).execute(db_path=db_path)


def merge_campaign(campaign_dir, db_path) -> Path:
    """Merge an already fully staged campaign into *db_path*.

    Useful when the campaign itself completed (journal says
    ``campaign_complete``) but the merge never ran or its output was
    deleted — merging is repeatable at any time from the shards alone.
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
    from repro.campaign.merge import SCOPE_NAME, load_scope_payload

    entry = sources[min(sources)]
    if entry.get("store") is not None:
        return Level2Store(Path(campaign_dir) / entry["store"])
    return load_scope_payload(Path(campaign_dir) / SCOPE_NAME)


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
