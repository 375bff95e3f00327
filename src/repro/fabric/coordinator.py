"""The campaign coordinator: ``repro fabric serve``.

One process owns the campaign directory — journal, lease ledger, scope
payload and the coordinator-side shards — and serves the fabric RPC
surface to a fleet of pull-based workers:

``register``   worker announces itself; gets the campaign bundle
               (description XML, treatments, platform config, batch
               cadence) so workers need zero local configuration.
``heartbeat``  liveness beat; feeds the worker state machines.
``lease``      pull a batch of runs as a durable TTL lease.
``renew``      extend a lease mid-batch.
``ack``        deliver one run's result (shipped level-3 rows) or its
               failure; the durable commit happens here, under the
               dispatch lock, before the worker gets its answer.
``status``     JSON snapshot for ``repro fabric status`` and the CI
               chaos drill.

Crash safety is inherited, not invented: the coordinator drives the same
:class:`~repro.campaign.session.CampaignSession` as the local engine, so
every run commit follows one ordering (scope payload → shard transaction
→ journal entry → scheduler → telemetry), the lease ledger restores
in-flight ownership after a coordinator restart, and the journal's
resume protocol re-queues exactly the runs whose commits never landed.
Because runs are pure functions of (description, run id), the merged
database of a restarted, re-leased, partially re-executed fleet campaign
is byte-identical to a single ``--jobs`` local campaign — the invariant
pinned by ``tests/integration/test_fleet_fabric.py``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaign.merge import SCOPE_NAME
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.session import CampaignResult, CampaignSession
from repro.core.description import ExperimentDescription
from repro.core.errors import CampaignError
from repro.core.heartbeat import HeartbeatConfig
from repro.core.plan import TreatmentPlan
from repro.core.rpc import RpcServer
from repro.core.xmlio import description_to_xml
from repro.fabric.dispatch import LeaseDispatcher, fleet_shard
from repro.fabric.election import ElectionLedger, LeadershipLost
from repro.fabric.leases import LeaseStore
from repro.fabric.registry import WorkerRegistry
from repro.fabric.shipping import CoordinatorShard
from repro.fabric.wire import FleetServer
from repro.storage.durable_log import fsync_dir

__all__ = ["FabricCoordinator", "serve_campaign"]


def config_to_wire(config) -> Optional[Dict[str, Any]]:
    """Serialize a :class:`PlatformConfig` for shipment to workers.

    Only JSON-able configs can cross the fleet (the CLI never builds
    anything else); prebuilt topology or congestion objects are
    coordinator-local and refused up front.
    """
    if config is None:
        return None
    data = asdict(config)
    if data.get("congestion") is not None:
        raise CampaignError(
            "fleet campaigns cannot ship a congestion model object; "
            "configure congestion via description parameters instead",
        )
    if not isinstance(data.get("topology"), str):
        raise CampaignError("fleet campaigns require a string topology name")
    # control_faults travel per-spec (filtered per attempt), never in the
    # base config — a worker must not double-arm them.
    data.pop("congestion", None)
    data.pop("control_faults", None)
    json.dumps(data)  # fail fast on anything exotic
    return data


class FabricCoordinator:
    """Owns one campaign's distributed execution.

    Parameters mirror :class:`repro.campaign.engine.CampaignEngine` where
    they mean the same thing (both pass them to one
    :class:`~repro.campaign.session.CampaignSession`); fabric-specific
    knobs:

    host, port:
        Bind address for the fleet server (``port=0`` = ephemeral).
    batch_size:
        Maximum runs per lease (queue-based load leveling: workers pull
        at most this much at a time, whatever the backlog).
    lease_ttl:
        Seconds a granted batch stays owned without renewal.
    heartbeat:
        :class:`HeartbeatConfig` driving worker liveness states.
    leader_id:
        This coordinator's identity on the election ledger (defaults to
        ``coord-<pid>``).
    election_ttl:
        Seconds the leadership lease stays held without a renewal; the
        failover detection horizon for standbys.
    takeover:
        ``True`` force-claims leadership even over a live lease (the
        operator ``--resume`` path: whoever restarts asserts the old
        leader is gone); ``False`` claims only a lapsed/released lease
        (the standby path) and raises :class:`LeadershipLost` otherwise.
        ``None`` (default) means ``takeover=resume``.
    """

    def __init__(
        self,
        description: ExperimentDescription,
        campaign_dir,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_size: int = 4,
        lease_ttl: float = 30.0,
        max_attempts: int = 2,
        resume: bool = False,
        custom_treatments: Optional[List[Dict[str, Any]]] = None,
        config=None,
        realtime_factor: Optional[float] = None,
        control_faults: Optional[List[Dict[str, Any]]] = None,
        quarantine_after: int = 3,
        heartbeat: Optional[HeartbeatConfig] = None,
        leader_id: Optional[str] = None,
        election_ttl: float = 10.0,
        takeover: Optional[bool] = None,
        progress=None,
        clock=time.time,
    ) -> None:
        self.description = description
        self.campaign_dir = Path(campaign_dir)
        self.host = host
        self.port = port
        self.batch_size = batch_size
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = max_attempts
        self.resume = resume
        self.custom_treatments = custom_treatments
        self.config = config
        self.config_wire = config_to_wire(config)
        self.realtime_factor = realtime_factor
        self.control_faults = list(control_faults or [])
        self.quarantine_after = quarantine_after
        self.heartbeat = heartbeat or HeartbeatConfig()
        self.progress = progress
        self.clock = clock

        self.leader_id = leader_id or f"coord-{os.getpid()}"
        self.election_ttl = float(election_ttl)
        self.takeover = resume if takeover is None else bool(takeover)

        self.election = ElectionLedger(
            self.campaign_dir,
            ttl=self.election_ttl,
            clock=self.clock,
        )
        self.epoch = 0
        self._lock = threading.RLock()
        self._server: Optional[FleetServer] = None
        self._scope_lock = threading.Lock()
        self.session: Optional[CampaignSession] = None
        self.dispatcher: Optional[LeaseDispatcher] = None
        self._handoff_draining = False
        self._deposed_reason: Optional[str] = None
        self._renew_stop = threading.Event()
        self._renew_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        if self._server is None:
            raise CampaignError("coordinator is not serving")
        host, port = self._server.address
        return f"{host}:{port}"

    @property
    def scope_path(self) -> Path:
        return self.campaign_dir / SCOPE_NAME

    @property
    def plan(self) -> TreatmentPlan:
        return self.session.plan

    @property
    def scheduler(self) -> CampaignScheduler:
        return self.session.scheduler

    def start(self) -> "FabricCoordinator":
        """Claim leadership, open the journal session, begin serving.

        The fleet server socket is bound (but not yet serving) *before*
        the leadership claim so the election record can carry the real
        endpoint even for ephemeral ports; losing the claim closes the
        socket and raises :class:`LeadershipLost` without having touched
        the journal.
        """
        rpc = RpcServer("fabric-coordinator")
        rpc.register_function(self._rpc_register, "register")
        rpc.register_function(self._rpc_heartbeat, "heartbeat")
        rpc.register_function(self._rpc_lease, "lease")
        rpc.register_function(self._rpc_renew, "renew")
        rpc.register_function(self._rpc_ack, "ack")
        rpc.register_function(self._rpc_status, "status")
        rpc.register_function(self._rpc_drain, "drain")
        rpc.register_function(self._rpc_quarantine, "quarantine")
        rpc.register_function(self._rpc_handoff, "handoff")
        self._server = FleetServer(self.host, self.port, rpc)  # bound, idle

        epoch = self.election.campaign(
            self.leader_id,
            self.address,
            force=self.takeover,
        )
        if epoch is None:
            holder = self.election.current()
            self._server.stop()
            self._server = None
            raise LeadershipLost(
                f"{self.leader_id} lost the leadership claim: "
                f"{holder.leader_id if holder else '?'} holds epoch "
                f"{holder.epoch if holder else 0}",
                reason="lost-claim",
            )
        self.epoch = epoch

        self.session = CampaignSession(
            self.description,
            self.campaign_dir,
            max_attempts=self.max_attempts,
            resume=self.resume,
            custom_treatments=self.custom_treatments,
            control_faults=self.control_faults,
            quarantine_after=self.quarantine_after,
            progress=self.progress,
            # The durable part of every commit runs under the election
            # flock with the epoch re-validated inside: a leader deposed
            # mid-ack (a partition healed, a rival claimed) cannot commit.
            fence=lambda commit: self.election.fenced(self.epoch, commit),
            epoch=self.epoch,
        )
        self.dispatcher = LeaseDispatcher(
            self.session,
            LeaseStore(
                self.campaign_dir,
                ttl=self.lease_ttl,
                clock=self.clock,
                epoch=self.epoch,
            ),
            WorkerRegistry(self.heartbeat, clock=self.clock),
            batch_size=self.batch_size,
            clock=self.clock,
        )
        if self.resume:
            self.dispatcher.restore()
            # Restore may have learned a higher epoch from the ledger,
            # but ours is the freshly claimed maximum by construction.
            self.dispatcher.leases.epoch = self.epoch
        # Fence the lease ledger at our epoch immediately: anything a
        # deposed predecessor appends from here on replays as stale.
        self.dispatcher.leases.fence()
        self.description_xml = description_to_xml(self.description)
        self._scope_run = min((run.run_id for run in self.plan), default=0)

        self._renew_stop.clear()
        self._renew_thread = threading.Thread(
            target=self._renew_leadership_loop,
            name=f"election-renew-{self.leader_id}",
            daemon=True,
        )
        self._renew_thread.start()
        self._server.start()
        return self

    def stop(self) -> None:
        self._renew_stop.set()
        if self._renew_thread is not None:
            self._renew_thread.join(timeout=5.0)
            self._renew_thread = None
        if self._server is not None:
            self._server.stop()
            self._server = None

    # ------------------------------------------------------------------
    # Leadership
    # ------------------------------------------------------------------
    @property
    def deposed(self) -> Optional[str]:
        """Why this coordinator stopped leading, or ``None`` while it
        still holds the lease (``"deposed"``, ``"handoff"``)."""
        return self._deposed_reason

    def _mark_deposed(self, reason: str) -> None:
        self._deposed_reason = self._deposed_reason or reason
        self._renew_stop.set()

    def _renew_leadership_loop(self) -> None:
        """Heartbeat the leadership lease at ~TTL/3; a refused renewal
        means a rival claimed a higher epoch — stop writing immediately."""
        period = max(0.2, self.election_ttl / 3.0)
        while not self._renew_stop.wait(period):
            if not self.election.renew(self.epoch):
                self._mark_deposed("deposed")
                return

    def _check_leadership(self) -> None:
        if self._deposed_reason is not None:
            raise LeadershipLost(
                f"{self.leader_id} no longer leads (epoch {self.epoch}): "
                f"{self._deposed_reason}",
                reason=self._deposed_reason,
            )

    def __enter__(self) -> "FabricCoordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # RPC surface (every handler serializes under the dispatch lock)
    # ------------------------------------------------------------------
    def _epoch_gate(self, epoch: int) -> bool:
        """True when the caller's epoch is not ours (the call is
        rejected).  A caller *behind* us is stale (it must re-register
        and learn the current epoch); a caller *ahead* of us means a
        rival claimed a higher epoch — we are the stale one and stop
        leading on the spot."""
        if epoch == self.epoch:
            return False
        if epoch > self.epoch:
            self._mark_deposed("deposed")
        return True

    def _rpc_register(self, worker_id: str, capacity: int) -> str:
        with self._lock:
            if self._deposed_reason is not None:
                raise CampaignError(
                    f"{self.leader_id} is not the leader ({self._deposed_reason}); "
                    "re-resolve the coordinator",
                )
            self.dispatcher.register(worker_id, capacity)
            # The worker executing the scope run must ship the conditioned
            # experiment scope — unless a previous session already staged
            # the scope run locally (its store serves the merge) or a
            # fleet shipment already persisted scope.json.
            staged_scope = self.session.staged.get(self._scope_run)
            need_scope = not self.scope_path.exists() and not (
                staged_scope is not None and staged_scope.get("store") is not None
            )
            return json.dumps(
                {
                    "session": self.session.index,
                    "fingerprint": self.description.fingerprint(),
                    "total_runs": len(self.plan),
                    "description_xml": self.description_xml,
                    "custom_treatments": self.custom_treatments,
                    "config": self.config_wire,
                    "realtime_factor": self.realtime_factor,
                    "scope_run": self._scope_run if need_scope else None,
                    "lease_ttl": self.lease_ttl,
                    "batch_size": self.batch_size,
                    "epoch": self.epoch,
                    "leader_id": self.leader_id,
                    "endpoint": self.address,
                },
            )

    def _rpc_heartbeat(self, worker_id: str) -> str:
        with self._lock:
            return self.dispatcher.beat(worker_id)

    def _rpc_lease(self, worker_id: str, want: int, epoch: int) -> str:
        with self._lock:
            if self._deposed_reason is not None:
                return json.dumps(
                    {"lease_id": None, "runs": [], "done": False,
                     "draining": False, "not_leader": True},
                )
            if self._epoch_gate(epoch):
                return json.dumps(
                    {"lease_id": None, "runs": [], "done": False,
                     "draining": False, "stale_epoch": True,
                     "epoch": self.epoch},
                )
            self.dispatcher.sweep()
            if self._handoff_draining:
                # Leadership is being handed off: in-flight batches drain,
                # nothing new is granted; workers keep polling and will
                # re-resolve to the successor.
                lease, batch = None, []
            else:
                lease, batch = self.dispatcher.grant(worker_id, want)
            if lease is None:
                return json.dumps(
                    {
                        "lease_id": None,
                        "runs": [],
                        "done": self.scheduler.finished,
                        "draining": worker_id in self.dispatcher.registry.draining,
                    },
                )
            runs = [
                {
                    "run_id": ticket.run_id,
                    "attempt": ticket.attempts,
                    "control_faults": self.session.start_run(ticket, worker_id),
                }
                for ticket in batch
            ]
            return json.dumps(
                {
                    "lease_id": lease.lease_id,
                    "ttl": self.lease_ttl,
                    "runs": runs,
                    "done": False,
                    "draining": False,
                },
            )

    def _rpc_renew(self, worker_id: str, lease_id: str, epoch: int) -> bool:
        with self._lock:
            if self._deposed_reason is not None or self._epoch_gate(epoch):
                return False
            return self.dispatcher.renew(worker_id, lease_id)

    def _rpc_ack(
        self,
        worker_id: str,
        lease_id: str,
        run_id: int,
        ok: bool,
        payload_json: str,
        error: str,
        epoch: int,
    ) -> str:
        with self._lock:
            if self._deposed_reason is not None:
                return json.dumps({"status": "not_leader"})
            if self._epoch_gate(epoch):
                if self._deposed_reason is not None:
                    return json.dumps({"status": "not_leader"})
                return json.dumps({"status": "stale_epoch", "epoch": self.epoch})
            if not ok:
                status = self.dispatcher.ack_failed(
                    worker_id,
                    lease_id,
                    run_id,
                    error or "worker reported failure",
                )
                return json.dumps({"status": status})
            payload = json.loads(payload_json)

            def stage() -> None:
                self._persist_scope(payload.get("scope"))
                with CoordinatorShard(self.campaign_dir / fleet_shard(worker_id)) as shard:
                    shard.ingest(run_id, payload["tables"])

            try:
                status = self.dispatcher.ack_completed(
                    worker_id,
                    lease_id,
                    run_id,
                    stage,
                    outcome={
                        "duration": payload.get("duration", 0.0),
                        "timed_out": payload.get("timed_out"),
                        "phases": payload.get("phases"),
                        **(payload.get("stats") or {}),
                    },
                )
            except LeadershipLost:
                self._mark_deposed("deposed")
                return json.dumps({"status": "not_leader"})
            return json.dumps({"status": status})

    def _rpc_status(self) -> str:
        with self._lock:
            status = self.dispatcher.status()
            status["session"] = self.session.index
            status["total_runs"] = len(self.plan)
            status["staged"] = len(self.scheduler.done) + len(self.session.staged)
            status["finished"] = self.scheduler.finished
            status["failed_runs"] = sorted(self.scheduler.failed)
            status["election"] = self.election.summary()
            status["epoch"] = self.epoch
            status["leader_id"] = self.leader_id
            status["handoff_draining"] = self._handoff_draining
            status["deposed"] = self._deposed_reason
            return json.dumps(status, sort_keys=True)

    def _rpc_handoff(self, timeout: float = 30.0) -> str:
        """Graceful leadership transfer: drain in-flight batches, then
        release the lease so a standby claims the next epoch.

        No lease is expired or revoked on this path — every in-flight
        run settles through its original worker's acks before the
        release — so a handoff re-leases exactly zero runs.
        """
        with self._lock:
            if self._deposed_reason is not None:
                return json.dumps(
                    {"released": False, "reason": self._deposed_reason},
                )
            self._handoff_draining = True
        deadline = time.monotonic() + float(timeout)
        pending: List[str] = []
        while time.monotonic() < deadline:
            with self._lock:
                if self._deposed_reason is not None:
                    return json.dumps(
                        {"released": False, "reason": self._deposed_reason},
                    )
                pending = [
                    lease.lease_id
                    for lease in self.dispatcher.leases.active()
                    if lease.pending
                ]
            if not pending:
                break
            time.sleep(0.05)
        else:
            with self._lock:
                self._handoff_draining = False
            return json.dumps(
                {"released": False, "reason": "drain timeout", "pending": pending},
            )
        with self._lock:
            released = self.election.release(self.epoch, "handoff")
            self._mark_deposed("handoff")
            return json.dumps({"released": released, "epoch": self.epoch})

    def _rpc_drain(self, worker_id: str) -> bool:
        with self._lock:
            self.dispatcher.drain_worker(worker_id)
            return True

    def _rpc_quarantine(self, worker_id: str, reason: str) -> str:
        with self._lock:
            requeued = self.dispatcher.quarantine_worker(
                worker_id,
                reason or "operator request",
            )
            return json.dumps({"requeued": sorted(requeued)})

    # ------------------------------------------------------------------
    def _persist_scope(self, scope_json: Optional[str]) -> None:
        """Durably keep the shipped scope payload, first shipment wins.

        Written (file and directory fsynced) *before* the scope run's
        shard commit: a journal entry for the scope run therefore implies
        the scope payload exists, which is what lets the merge trust
        ``scope.json`` unconditionally for fleet campaigns.
        """
        if scope_json is None:
            return
        with self._scope_lock:
            if self.scope_path.exists():
                return
            tmp = self.scope_path.with_suffix(".json.tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(scope_json)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.scope_path)
            fsync_dir(self.scope_path.parent)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finished(self) -> bool:
        with self._lock:
            # A deposed leader must not keep sweeping: TTL expiries and
            # lease closes are the successor's to write now.
            self._check_leadership()
            self.dispatcher.sweep()
            return self.scheduler.finished

    def run_until_complete(
        self,
        db_path=None,
        poll: float = 0.2,
        timeout: Optional[float] = None,
    ) -> CampaignResult:
        """Block until every run settled; journal completion and merge.

        Raises :class:`CampaignError` (resumable state, like the local
        engine) when runs exhausted their attempt budgets or *timeout*
        elapsed with the queue still busy, and :class:`LeadershipLost`
        when this coordinator was deposed or handed leadership off (the
        successor finishes the campaign).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.finished():
            if deadline is not None and time.monotonic() > deadline:
                raise CampaignError(
                    f"fleet campaign did not settle within {timeout}s; "
                    "resume after fixing the fleet",
                )
            time.sleep(poll)
        return self.finalize(db_path=db_path)

    def finalize(self, db_path=None) -> CampaignResult:
        """Seal a settled campaign: journal ``campaign_complete``, merge."""
        with self._lock:
            result = self.session.seal(
                jobs=len(self.dispatcher.registry.workers()) or 1,
                pool="fleet",
            )
            # Leadership is no longer needed: release so watching
            # standbys exit instead of waiting out the TTL.
            self._renew_stop.set()
            self.election.release(self.epoch, "complete")
        if db_path is not None:
            self.session.merge(result, db_path)
        return result


def serve_campaign(description, campaign_dir, db_path=None, **kwargs):
    """One-call convenience mirroring :func:`run_campaign` for fleets."""
    coordinator = FabricCoordinator(description, campaign_dir, **kwargs)
    with coordinator:
        return coordinator.run_until_complete(db_path=db_path)
