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
The parent process is the only journal writer; it settles every run
through the :class:`~repro.campaign.session.CampaignSession` the fabric
coordinator drives too.  A run is journaled ``run_complete`` only after
its shard transaction committed; a crash anywhere (worker or parent)
therefore loses at most in-flight work, which ``--resume`` re-executes to
byte-identical results.  A worker process that dies breaks a process
pool for good: the next submit swaps in a fresh pool, and the runs in
flight on the dead one fail through their futures as ordinary attempts.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaign.session import CampaignResult, CampaignSession
from repro.core.description import ExperimentDescription
from repro.core.errors import CampaignError
from repro.core.xmlio import description_to_xml
from repro.obs.metrics import get_registry
from repro.obs.trace import Tracer
from repro.storage.durable_log import DurableLog

__all__ = ["CampaignEngine", "run_campaign"]


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
        session = CampaignSession(
            self.description,
            self.campaign_dir,
            jobs=self.jobs,
            max_attempts=self.max_attempts,
            resume=self.resume,
            custom_treatments=self.custom_treatments,
            control_faults=self.control_faults,
            quarantine_after=self.quarantine_after,
            progress=self.progress,
            salvage_requeue_loss=self.salvage_requeue_loss,
        )
        scheduler = session.scheduler

        # Engine-scope tracer: dispatch spans and worker-boundary error
        # spans (with full tracebacks) land in <campaign_dir>/traces.jsonl.
        # Per-run spans travel separately, through the workers' staging
        # stores into the shards' RunTraces table.
        tracer = Tracer(node="engine")
        campaign_wall_start = tracer.clock() if tracer.enabled else 0.0
        dispatch_started: Dict[int, float] = {}
        description_xml = description_to_xml(self.description)

        executor_cls = (
            concurrent.futures.ProcessPoolExecutor
            if self.pool == "process"
            else concurrent.futures.ThreadPoolExecutor
        )
        jobs = scheduler.effective_jobs
        executor = executor_cls(max_workers=jobs)
        futures: Dict[concurrent.futures.Future, Any] = {}
        free_slots = list(range(jobs - 1, -1, -1))  # pop() -> slot 0 first
        completions = 0

        def submit(spec: Dict[str, Any]) -> concurrent.futures.Future:
            nonlocal executor
            try:
                return executor.submit(_execute_ticket, spec)
            except concurrent.futures.BrokenExecutor:
                # A pool worker died (e.g. killed by the OOM killer): the
                # runs in flight on that pool fail through their futures
                # like any failed attempt; new work gets a fresh pool.
                executor.shutdown(wait=False)
                executor = executor_cls(max_workers=jobs)
                return executor.submit(_execute_ticket, spec)

        def dispatch() -> None:
            while free_slots:
                ticket = scheduler.next_ticket()
                if ticket is None:
                    return
                slot = free_slots.pop()
                label = f"s{session.index}w{slot:02d}"
                control_faults = session.start_run(ticket, label)
                if tracer.enabled:
                    dispatch_started[ticket.run_id] = tracer.clock()
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
                    "control_faults": control_faults,
                }
                futures[submit(spec)] = (ticket, slot, label)

        try:
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
                        requeued = session.fail(
                            ticket.run_id,
                            label,
                            f"{type(exc).__name__}: {exc}",
                        )
                        # The one-line error string is all the journal
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
                            "Exceptions crossing the campaign worker boundary",
                        ).inc()
                        continue
                    session.complete(
                        ticket.run_id,
                        label,
                        res["shard"],
                        store=res["store"],
                        outcome=res,
                    )
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
                    completions += 1
                    if (
                        self.abort_after_runs is not None
                        and completions >= self.abort_after_runs
                        and not scheduler.finished
                    ):
                        raise CampaignError(
                            f"aborting after {completions} runs (abort_after_runs)",
                        )
                free_slots.sort(reverse=True)
                dispatch()
        finally:
            executor.shutdown(wait=True)
            if tracer.enabled:
                tracer.record(
                    "campaign",
                    campaign_wall_start,
                    tracer.clock(),
                    jobs=jobs,
                    pool=self.pool,
                    completed=len(scheduler.done),
                    failed=len(scheduler.failed),
                )
            self._write_observability(tracer)

        result = session.seal(jobs=jobs, pool=self.pool)
        if db_path is not None:
            session.merge(result, db_path)
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


def run_campaign(description, campaign_dir, db_path=None, **kwargs) -> CampaignResult:
    """One-call convenience: build the engine, execute, merge."""
    return CampaignEngine(description, campaign_dir, **kwargs).execute(db_path=db_path)
