"""Unit tests for the coordinator's epoch fence on the worker RPCs."""

import json

import pytest

from repro.fabric.coordinator import FabricCoordinator
from repro.sd.processlib import build_two_party_description


@pytest.fixture
def coordinator(tmp_path):
    desc = build_two_party_description(name="fence-unit", seed=3, replications=2, env_count=1)
    coordinator = FabricCoordinator(desc, tmp_path / "campaign", batch_size=1)
    with coordinator:
        coordinator._rpc_register("w1", 1)
        yield coordinator


def test_calls_without_an_epoch_are_fenced_out(coordinator):
    commits = []
    coordinator.session.complete = lambda *args, **kwargs: commits.append(args)
    assert coordinator.epoch == 1

    lease = json.loads(coordinator._rpc_lease("w1", 1, -1))
    assert lease["stale_epoch"] and lease["epoch"] == 1 and lease["runs"] == []

    granted = json.loads(coordinator._rpc_lease("w1", 1, coordinator.epoch))
    assert granted["lease_id"] is not None
    run_id = granted["runs"][0]["run_id"]
    assert coordinator._rpc_renew("w1", granted["lease_id"], -1) is False
    assert coordinator._rpc_renew("w1", granted["lease_id"], coordinator.epoch) is True

    payload = json.dumps({"tables": {}, "duration": 0.1})
    ack = json.loads(
        coordinator._rpc_ack("w1", granted["lease_id"], run_id, True, payload, "", -1),
    )
    assert ack == {"status": "stale_epoch", "epoch": 1}
    assert commits == []
    assert coordinator.session.journal.completed() == {}
    # A caller behind the leader is stale; the leader keeps leading.
    assert coordinator.deposed is None
