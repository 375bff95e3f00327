"""Unit tests for the campaign session shared by local pools and fleets.

Each case runs once per caller: ``local`` settles runs the way
:meth:`CampaignEngine.execute` does (straight through the session), and
``fleet`` the way the fabric coordinator does (through
:class:`LeaseDispatcher` leases).
"""

import pytest

from repro.campaign import CampaignEngine, CampaignJournal, CampaignSession
from repro.core.errors import CampaignError, RecoveryError, node_token
from repro.core.heartbeat import HeartbeatConfig
from repro.fabric.coordinator import FabricCoordinator
from repro.fabric.dispatch import LeaseDispatcher, fleet_shard
from repro.fabric.leases import LeaseStore
from repro.fabric.registry import WorkerRegistry
from repro.sd.processlib import build_two_party_description
from tests.conftest import stage_fleet_shard

CALLERS = ("local", "fleet")


def _desc(replications=4):
    return build_two_party_description(
        name="session-unit",
        seed=5,
        replications=replications,
        env_count=1,
    )


class Local:
    """Dispatches and settles like the engine's pool loop."""

    worker = "s0w00"

    def __init__(self, session):
        self.session = session

    def dispatch(self):
        ticket = self.session.scheduler.next_ticket()
        self.session.start_run(ticket, self.worker)
        return ticket.run_id

    def fail(self, run_id, error):
        return "requeued" if self.session.fail(run_id, self.worker, error) else "failed"

    def complete(self, run_id):
        self.session.complete(run_id, self.worker, f"shards/{self.worker}.db")


class Fleet:
    """Dispatches and settles like the coordinator's RPC handlers."""

    worker = "w1"

    def __init__(self, session, tmp_path):
        self.session = session
        self.dispatcher = LeaseDispatcher(
            session,
            LeaseStore(tmp_path, ttl=30.0),
            WorkerRegistry(HeartbeatConfig()),
            batch_size=1,
        )
        self.lease = None

    def dispatch(self):
        self.lease, batch = self.dispatcher.grant(self.worker, 1)
        self.session.start_run(batch[0], self.worker)
        return batch[0].run_id

    def fail(self, run_id, error):
        return self.dispatcher.ack_failed(self.worker, self.lease.lease_id, run_id, error)

    def complete(self, run_id):
        self.dispatcher.ack_completed(self.worker, self.lease.lease_id, run_id, lambda: None)


def _caller(kind, tmp_path, **session_kwargs):
    session = CampaignSession(_desc(), tmp_path, **session_kwargs)
    return Local(session) if kind == "local" else Fleet(session, tmp_path)


@pytest.mark.parametrize("kind", CALLERS)
def test_failed_attempt_requeues_until_the_budget_is_spent(kind, tmp_path):
    caller = _caller(kind, tmp_path, max_attempts=2)
    session = caller.session
    run_id = caller.dispatch()
    assert caller.fail(run_id, "boom") == "requeued"
    assert caller.dispatch() == run_id  # retries go first
    assert caller.fail(run_id, "boom again") == "failed"
    assert session.scheduler.failed == {run_id: "boom again"}
    assert session.journal.failure_reasons()[run_id]["attempt"] == 2
    summary = session.telemetry.summary()
    assert (summary["retried"], summary["failed"]) == (1, 1)


@pytest.mark.parametrize("kind", CALLERS)
def test_quarantined_node_failures_are_terminal(kind, tmp_path):
    caller = _caller(kind, tmp_path, max_attempts=5, quarantine_after=2)
    session = caller.session
    error = f"PlatformError: node died {node_token('t9-100')}"
    first = caller.dispatch()
    assert caller.fail(first, error) == "requeued"
    assert caller.dispatch() == first
    # The second failure naming t9-100 quarantines it ...
    assert caller.fail(first, error) == "requeued"
    assert session.journal.quarantined_nodes() == ["t9-100"]
    assert session.telemetry.summary()["quarantined_nodes"] == ["t9-100"]
    # ... so the next failure naming it is final despite a budget left.
    assert caller.dispatch() == first
    assert caller.fail(first, error) == "failed"
    second = caller.dispatch()
    assert caller.fail(second, error) == "failed"
    assert set(session.scheduler.failed) == {first, second}
    # A failure naming another node still retries.
    third = caller.dispatch()
    assert caller.fail(third, f"boom {node_token('t9-101')}") == "requeued"


@pytest.mark.parametrize("kind", CALLERS)
def test_seal_raises_once_for_failed_runs_and_seals_clean_sessions(kind, tmp_path):
    caller = _caller(kind, tmp_path / "failed", max_attempts=1)
    run_id = caller.dispatch()
    caller.fail(run_id, "boom")
    while not caller.session.scheduler.finished:
        caller.complete(caller.dispatch())
    with pytest.raises(CampaignError, match=r"1 run\(s\) failed after 1 attempt\(s\): "):
        caller.session.seal(jobs=1, pool=kind)
    assert not caller.session.journal.finished()

    caller = _caller(kind, tmp_path / "clean")
    while not caller.session.scheduler.finished:
        caller.complete(caller.dispatch())
    result = caller.session.seal(jobs=1, pool=kind)
    assert result.executed_runs == [0, 1, 2, 3]
    caller.session.seal(jobs=1, pool=kind)
    entries = caller.session.journal.entries()
    assert sum(e["type"] == "campaign_complete" for e in entries) == 1


@pytest.mark.parametrize("kind", CALLERS)
def test_fresh_directory_holding_a_journal_is_refused(kind, tmp_path):
    CampaignSession(_desc(), tmp_path)
    if kind == "local":
        with pytest.raises(RecoveryError, match="already holds a journal"):
            CampaignEngine(_desc(), tmp_path, pool="thread").execute()
    else:
        coordinator = FabricCoordinator(_desc(), tmp_path)
        try:
            with pytest.raises(RecoveryError, match="already holds a journal"):
                coordinator.start()
        finally:
            coordinator.stop()
    assert CampaignJournal(tmp_path).session_count() == 1


@pytest.mark.parametrize("kind", CALLERS)
def test_resume_skips_staged_runs_and_reruns_the_rest(kind, tmp_path):
    desc = _desc()
    if kind == "local":
        with pytest.raises(CampaignError, match="abort"):
            CampaignEngine(desc, tmp_path, pool="thread", abort_after_runs=2).execute()
        staged = set(CampaignJournal(tmp_path).completed())
    else:
        fleet = Fleet(CampaignSession(desc, tmp_path), tmp_path)
        for _ in range(2):
            run_id = fleet.dispatch()
            fleet.dispatcher.ack_completed(
                fleet.worker,
                fleet.lease.lease_id,
                run_id,
                lambda: stage_fleet_shard(tmp_path, fleet_shard(fleet.worker), run_id),
            )
        staged = {0, 1}
    assert len(staged) == 2

    session = CampaignSession(desc, tmp_path, resume=True)
    assert session.index == 1
    assert set(session.staged) == staged
    dispatched = []
    while (ticket := session.scheduler.next_ticket()) is not None:
        dispatched.append(ticket.run_id)
    assert sorted(dispatched + sorted(staged)) == [0, 1, 2, 3]
