"""Unit tests for the lease dispatcher: grants, dedup, reclaim, restore."""

from repro.campaign.session import CampaignSession
from repro.core.heartbeat import ALIVE, DEAD, HeartbeatConfig, QUARANTINED
from repro.fabric.dispatch import LeaseDispatcher, fleet_shard
from repro.fabric.leases import LeaseStore
from repro.fabric.registry import WorkerRegistry
from repro.sd.processlib import build_two_party_description
from tests.conftest import stage_fleet_shard


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _session(tmp_path, replications=6, max_attempts=2, resume=False):
    desc = build_two_party_description(seed=42, replications=replications, env_count=1)
    return CampaignSession(desc, tmp_path, max_attempts=max_attempts, resume=resume)


def _dispatcher(tmp_path, clock, replications=6, ttl=30.0, max_attempts=2):
    heartbeat = HeartbeatConfig(interval=1.0, suspect_after=2, dead_after=4, quarantine_after=2)
    dispatcher = LeaseDispatcher(
        _session(tmp_path, replications, max_attempts),
        LeaseStore(tmp_path, ttl=ttl, clock=clock),
        WorkerRegistry(heartbeat, clock=clock),
        batch_size=2,
        clock=clock,
    )
    return dispatcher


def test_grant_auto_registers_and_respects_batch_size(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock)
    lease, batch = dispatcher.grant("w1", want=10)
    assert dispatcher.registry.known("w1")
    assert [t.run_id for t in batch] == [0, 1]  # capped at batch_size
    assert lease.run_ids == (0, 1)
    assert dispatcher.journal.registered_workers() == ["w1"]


def test_draining_and_dead_workers_get_nothing(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock)
    dispatcher.register("w1")
    dispatcher.drain_worker("w1")
    assert dispatcher.grant("w1", 2) == (None, [])
    dispatcher.registry.undrain("w1")
    clock.advance(10.0)  # > dead_after consecutive misses
    dispatcher.sweep()
    assert dispatcher.registry.state("w1") == DEAD
    assert dispatcher.grant("w2", 2)[0] is not None  # others still served
    assert dispatcher.registry.state("w2") == ALIVE


def test_duplicate_ack_never_commits_twice(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock)
    lease, _ = dispatcher.grant("w1", 1)
    commits = []
    assert (
        dispatcher.ack_completed("w1", lease.lease_id, 0, lambda: commits.append(0))
        == "committed"
    )
    assert (
        dispatcher.ack_completed("w1", lease.lease_id, 0, lambda: commits.append(0))
        == "duplicate"
    )
    assert commits == [0]
    assert dispatcher.scheduler.done == {0}


def test_expired_lease_requeues_pending_runs_exactly_once(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, ttl=10.0)
    lease, _ = dispatcher.grant("w1", 2)
    dispatcher.ack_completed("w1", lease.lease_id, 0, lambda: None)
    clock.advance(11.0)
    swept = dispatcher.sweep()
    assert swept["expired"] == [lease.lease_id]
    # Run 1 is back in the queue, no attempt charged; a second sweep is a no-op.
    assert dispatcher.scheduler.pending == 5
    assert dispatcher.sweep()["expired"] == []
    lease2, batch2 = dispatcher.grant("w2", 1)
    assert batch2[0].run_id == 1  # retry-wave promotion: re-leased first
    assert batch2[0].attempts == 1  # expiry did not charge the budget


def test_late_ack_of_expired_lease_wins_over_release(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, ttl=10.0)
    lease, _ = dispatcher.grant("w1", 1)
    clock.advance(11.0)
    dispatcher.sweep()  # run 0 released back to the queue
    committed = []
    status = dispatcher.ack_completed("w1", lease.lease_id, 0, lambda: committed.append(0))
    assert status == "committed"  # first ack wins, even after expiry
    assert committed == [0]
    # The stale queue entry must never dispatch again.
    lease2, batch2 = dispatcher.grant("w2", 2)
    assert 0 not in [t.run_id for t in batch2]
    for ticket in batch2:
        dispatcher.ack_completed("w2", lease2.lease_id, ticket.run_id, lambda: None)


def test_late_failure_after_release_charges_nothing(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, ttl=10.0)
    lease, _ = dispatcher.grant("w1", 1)
    clock.advance(11.0)
    dispatcher.sweep()
    assert dispatcher.ack_failed("w1", lease.lease_id, 0, "boom") == "duplicate"
    assert dispatcher.scheduler.failed == {}
    assert dispatcher.scheduler.pending == 6


def test_failed_ack_requeues_until_budget_exhausted(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, max_attempts=2)
    lease, _ = dispatcher.grant("w1", 1)
    assert dispatcher.ack_failed("w1", lease.lease_id, 0, "boom") == "requeued"
    lease2, batch2 = dispatcher.grant("w1", 1)
    assert batch2[0].run_id == 0 and batch2[0].attempts == 2
    assert dispatcher.ack_failed("w1", lease2.lease_id, 0, "boom") == "failed"
    assert 0 in dispatcher.scheduler.failed


def test_quarantined_worker_batch_re_leased_exactly_once(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock)
    lease, _ = dispatcher.grant("w1", 2)
    requeued = dispatcher.quarantine_worker("w1", "flaky host")
    assert sorted(requeued) == [0, 1]
    assert dispatcher.leases.get(lease.lease_id).closed == "revoked"
    # Second quarantine (or a racing expiry sweep) reclaims nothing more.
    assert dispatcher.quarantine_worker("w1", "again") == []
    clock.advance(1000.0)
    assert dispatcher.sweep()["expired"] == []
    assert dispatcher.registry.state("w1") == QUARANTINED
    assert dispatcher.grant("w1", 1) == (None, [])
    # The batch is leasable by someone else, once.
    _, batch = dispatcher.grant("w2", 2)
    assert [t.run_id for t in batch] == [0, 1]
    assert dispatcher.scheduler.pending == 4


def test_liveness_flapping_quarantines_and_revokes(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, ttl=1000.0)
    lease, _ = dispatcher.grant("w1", 2)
    # Die, resurrect, die again: quarantine_after=2 makes it terminal.
    clock.advance(5.0)
    dispatcher.sweep()
    dispatcher.beat("w1")
    clock.advance(5.0)
    swept = dispatcher.sweep()
    assert swept["quarantined"] == ["w1"]
    assert dispatcher.registry.state("w1") == QUARANTINED
    assert dispatcher.leases.get(lease.lease_id).closed == "revoked"
    assert dispatcher.scheduler.pending == 6
    assert dispatcher.journal.quarantined_workers() == ["w1"]


def test_restore_reclaims_pending_runs_and_grace_renews(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, ttl=10.0)
    lease, _ = dispatcher.grant("w1", 2)
    shard = fleet_shard("w1")
    dispatcher.ack_completed("w1", lease.lease_id, 0, lambda: stage_fleet_shard(tmp_path, shard, 0))

    # Coordinator restart: fresh session (run 0 staged), fresh dispatcher.
    clock.advance(9.0)
    session = _session(tmp_path, resume=True)
    assert session.staged.keys() == {0}
    restored = LeaseDispatcher(
        session,
        LeaseStore(tmp_path, ttl=10.0, clock=clock),
        WorkerRegistry(HeartbeatConfig(), clock=clock),
        batch_size=2,
        clock=clock,
    )
    assert restored.restore() == 1
    # Run 1 is claimed by the restored lease: not leasable to others ...
    _, batch = restored.grant("w2", 2)
    assert 1 not in [t.run_id for t in batch]
    # ... the grace renewal pushed the expiry a fresh TTL out ...
    assert restored.sweep()["expired"] == []
    # ... and the original worker's ack still lands as the first ack.
    assert restored.ack_completed("w1", lease.lease_id, 1, lambda: None) == "committed"


def test_replayed_ack_of_staged_run_deduplicates(tmp_path):
    """A worker replaying its unacked buffer across a coordinator restart
    may re-send a run whose commit landed (and was staged) just before
    the crash: the new session must answer ``duplicate`` — not commit
    again, and not corrupt the scheduler's pending accounting."""
    clock = FakeClock()
    first = _session(tmp_path, replications=4)
    # Session 1 granted L000001 for runs (0, 1) and committed run 0.
    old = LeaseStore(tmp_path, ttl=30.0, clock=clock)
    old_lease = old.grant("w1", [0, 1])
    stage_fleet_shard(tmp_path, fleet_shard("w1"), 0)
    first.journal.record_run_complete(0, "w1", None, fleet_shard("w1"))
    # Session 2: run 0 arrives staged (journal replay), not via `done`.
    session = _session(tmp_path, replications=4, resume=True)
    scheduler = session.scheduler
    heartbeat = HeartbeatConfig(
        interval=1.0, suspect_after=2, dead_after=4, quarantine_after=2,
    )
    dispatcher = LeaseDispatcher(
        session,
        LeaseStore(tmp_path, ttl=30.0, clock=clock),
        WorkerRegistry(heartbeat, clock=clock),
        batch_size=2,
        clock=clock,
    )
    dispatcher.restore()
    pending_before = scheduler.pending
    commits = []
    status = dispatcher.ack_completed(
        "w1", old_lease.lease_id, 0, lambda: commits.append(0),
    )
    assert status == "duplicate"
    assert commits == []
    assert scheduler.pending == pending_before
    assert dispatcher.ack_failed("w1", old_lease.lease_id, 0, "late") == "duplicate"
    # Run 1 is still honorably in flight under the restored lease.
    assert 1 in scheduler.in_flight
    assert (
        dispatcher.ack_completed("w1", old_lease.lease_id, 1, lambda: commits.append(1))
        == "committed"
    )
    assert commits == [1]
