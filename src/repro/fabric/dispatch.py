"""The lease dispatcher: queue-based load leveling over the run queue.

Sits between the campaign session (:mod:`repro.campaign.session`: its
scheduler is the persistent run queue, and it settles every run exactly
as a local pool's would) and the fleet: workers *pull* batches, the
dispatcher grants each pull as a durable lease, and every state change
funnels through one object so the coordinator can serialize it under a
single lock.

The guarantees, and where each lives:

* **No duplicate bookkeeping.**  First ack wins: a run already in the
  scheduler's ``done`` set is a duplicate and its staging step is
  never invoked — a re-leased batch whose original worker resurfaces
  cannot double-commit (:meth:`ack_completed`).
* **Exactly-once re-lease.**  Expiry, revocation and quarantine all run
  through :meth:`_reclaim`, which closes the lease first (idempotent in
  the lease store) and releases only the runs that close reclaimed —
  a second expiry/revoke of the same lease is a no-op.
* **No lost runs.**  Reclaimed runs go back through
  ``scheduler.release`` — no attempt charged (the run did nothing
  wrong), retry-wave promotion so the re-leased batch does not starve.
* **Liveness drives policy.**  :meth:`sweep` charges worker silence
  through the registry's state machines and reclaims leases of workers
  that crossed into ``dead``/``quarantined``; an expired TTL reclaims
  even while the worker still counts as alive (a wedged worker process
  heartbeats nothing either way).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign.scheduler import RunTicket
from repro.campaign.session import CampaignSession
from repro.core.heartbeat import DEAD, QUARANTINED
from repro.fabric.leases import Lease, LeaseStore
from repro.fabric.registry import WorkerRegistry

__all__ = ["LeaseDispatcher", "fleet_shard"]


def fleet_shard(worker_id: str) -> str:
    """The coordinator-side shard a worker's shipped runs land in,
    relative to the campaign directory (a filesystem-safe name)."""
    slug = "".join(c if c.isalnum() or c in "-_" else "_" for c in worker_id) or "worker"
    return f"shards/fleet_{slug}.db"


class LeaseDispatcher:
    """Grants, reclaims and settles batch leases for one campaign.

    Not thread-safe by itself — the coordinator holds its dispatch lock
    across every call (the RPC server is multi-threaded; the dispatcher
    is the serialization point).
    """

    def __init__(
        self,
        session: CampaignSession,
        leases: LeaseStore,
        registry: WorkerRegistry,
        batch_size: int = 4,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.session = session
        self.scheduler = session.scheduler
        self.journal = session.journal
        self.telemetry = session.telemetry
        self.leases = leases
        self.registry = registry
        self.batch_size = max(1, int(batch_size))
        self.clock = clock

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, worker_id: str, capacity: int = 1) -> bool:
        """Admit a worker; journaled + announced on first sight only."""
        fresh = self.registry.register(worker_id, capacity)
        if fresh:
            self.journal.record_worker_registered(worker_id, capacity)
            self.telemetry.worker_registered(worker_id, capacity)
        return fresh

    def beat(self, worker_id: str) -> str:
        """One worker heartbeat; returns the worker's (new) state."""
        moved = self.registry.beat(worker_id)
        if moved is not None:
            self.telemetry.worker_state(worker_id, moved[0], moved[1])
        return self.registry.state(worker_id)

    # ------------------------------------------------------------------
    # Granting
    # ------------------------------------------------------------------
    def grant(self, worker_id: str, want: int) -> Tuple[Optional[Lease], List[RunTicket]]:
        """Lease up to *want* runs to *worker_id* (pull model).

        Returns ``(None, [])`` when the worker may not receive work
        (draining, dead, quarantined) or the queue is empty.
        """
        if not self.registry.known(worker_id):
            self.register(worker_id)
        self.registry.beat(worker_id)
        if not self.registry.leasable(worker_id):
            return None, []
        size = max(1, min(int(want) if want else self.batch_size, self.batch_size))
        batch = self.scheduler.next_batch(size)
        if not batch:
            return None, []
        lease = self.leases.grant(worker_id, [t.run_id for t in batch])
        self.telemetry.lease_granted(worker_id, lease.lease_id, len(batch))
        return lease, batch

    def renew(self, worker_id: str, lease_id: str) -> bool:
        """Extend a lease the worker is still executing; False tells the
        worker its lease is gone and the batch should be abandoned."""
        self.registry.beat(worker_id)
        lease = self.leases.get(lease_id)
        if lease is None or lease.worker_id != worker_id:
            return False
        return self.leases.renew(lease_id) is not None

    # ------------------------------------------------------------------
    # Settling
    # ------------------------------------------------------------------
    def ack_completed(
        self,
        worker_id: str,
        lease_id: str,
        run_id: int,
        stage: Callable[[], None],
        outcome: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Settle one successfully executed run.

        *stage* is the coordinator's durable staging step (scope persist
        + shard ingest into :func:`fleet_shard`); the session runs it and
        then journals the run, only when this ack is the run's first —
        the idempotency point for duplicate acks, late acks of re-leased
        runs, and client retries of a response that was lost in flight.
        *outcome* is the run's timing and statistics (see
        :meth:`CampaignSession.complete`).

        Returns ``"committed"`` or ``"duplicate"``.
        """
        self.registry.beat(worker_id)
        if self._settled(run_id):
            # Already settled (duplicate ack, retried RPC, a re-leased
            # run's second executor, or a replayed ack of a run a
            # previous session staged): acknowledge without committing.
            self.leases.ack(lease_id, run_id)
            return "duplicate"
        self.session.complete(
            run_id,
            worker_id,
            fleet_shard(worker_id),
            outcome=outcome,
            stage=stage,
        )
        self.leases.ack(lease_id, run_id)
        return "committed"

    def ack_failed(self, worker_id: str, lease_id: str, run_id: int, error: str) -> str:
        """Settle one failed run attempt; charges the run's retry budget.

        Returns ``"requeued"``, ``"failed"`` (budget exhausted) or
        ``"duplicate"``.
        """
        self.registry.beat(worker_id)
        if self._settled(run_id) or run_id not in self.scheduler.in_flight:
            # Settled already, or the lease expired and the run was
            # released: this late report must not charge a fresh attempt.
            self.leases.ack(lease_id, run_id)
            return "duplicate"
        requeued = self.session.fail(run_id, worker_id, error)
        self.leases.ack(lease_id, run_id)
        return "requeued" if requeued else "failed"

    def _settled(self, run_id: int) -> bool:
        """A run is settled if this session committed it (``done``) or a
        previous session's journaled commit staged it (``skipped``) —
        both must dedupe incoming acks, or a worker replaying its
        unacked buffer across a coordinator restart would double-commit
        a run whose first commit landed just before the crash."""
        return run_id in self.scheduler.done or run_id in self.scheduler.skipped

    # ------------------------------------------------------------------
    # Reclaiming
    # ------------------------------------------------------------------
    def _reclaim(self, lease: Lease, reason: str) -> List[int]:
        """Close a lease and return its unsettled runs to the queue.

        The close is the exactly-once gate: :meth:`LeaseStore.close` is
        idempotent, so a lease reclaimed by an expiry sweep cannot be
        reclaimed again by a concurrent quarantine (or vice versa).
        """
        closed = self.leases.close(lease.lease_id, reason)
        if closed is None or closed.closed != reason:
            return []
        return [run_id for run_id in lease.pending if self.scheduler.release(run_id)]

    def sweep(self, now: Optional[float] = None) -> Dict[str, List[str]]:
        """Periodic housekeeping: liveness misses, TTL expiry, quarantine.

        Returns ``{"expired": [lease ids], "quarantined": [worker ids]}``
        for the coordinator's status output.
        """
        now = self.clock() if now is None else now
        out: Dict[str, List[str]] = {"expired": [], "quarantined": []}
        for worker_id, old, new in self.registry.sweep(now):
            self.telemetry.worker_state(worker_id, old, new)
            if new == QUARANTINED:
                out["quarantined"].append(worker_id)
                self._quarantine_leases(worker_id, "liveness flapping")
            elif new == DEAD:
                # Leases stay granted until their TTL — the worker may be
                # partitioned, not gone — but nothing new is granted.
                pass
        for lease in self.leases.expired(now):
            requeued = self._reclaim(lease, "expired")
            if not requeued and not lease.pending:
                continue
            out["expired"].append(lease.lease_id)
            self.journal.record_lease_expired(
                lease.lease_id,
                lease.worker_id,
                requeued,
            )
            self.telemetry.lease_expired(lease.lease_id, lease.worker_id, len(requeued))
        return out

    def _quarantine_leases(self, worker_id: str, reason: str) -> List[int]:
        requeued: List[int] = []
        for lease in self.leases.for_worker(worker_id):
            requeued.extend(self._reclaim(lease, "revoked"))
        self.journal.record_worker_quarantined(worker_id, reason)
        self.telemetry.worker_quarantined(worker_id, reason)
        return requeued

    def quarantine_worker(self, worker_id: str, reason: str) -> List[int]:
        """Administrative/terminal removal; revokes active leases now.

        Returns the run ids returned to the queue.
        """
        if not self.registry.quarantine(worker_id):
            return []
        return self._quarantine_leases(worker_id, reason)

    def drain_worker(self, worker_id: str) -> None:
        """Graceful removal: current leases finish, nothing new granted."""
        self.registry.drain(worker_id)

    # ------------------------------------------------------------------
    # Restore (coordinator restart)
    # ------------------------------------------------------------------
    def restore(self) -> int:
        """Rebuild lease state after a coordinator restart.

        Active leases from the ledger re-claim their unsettled runs out
        of the scheduler queue (the original workers may still ack them)
        and get one fresh TTL so a live worker has time to re-establish
        its renewal cadence before the first sweep.  Returns the number
        of restored active leases.
        """
        restored = self.leases.restore()
        for lease in self.leases.active():
            for run_id in lease.pending:
                if not self._settled(run_id):
                    self.scheduler.claim(run_id)
            self.leases.renew(lease.lease_id)
            self.registry.register(lease.worker_id)
        return restored

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        return {
            "scheduler": self.scheduler.summary(),
            "leases": self.leases.summary(),
            "fleet": self.registry.counts(),
            "workers": self.registry.summary(),
        }
