"""Shared fixtures for the ExCovery reproduction test suite."""

from __future__ import annotations

import sqlite3
import zlib
from pathlib import Path

import pytest

from repro.net.medium import WirelessMedium
from repro.net.node import NetNode
from repro.net.topology import grid_topology, line_topology
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.storage.durable_log import DurableLog


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rngs():
    return RngRegistry(1234)


@pytest.fixture
def grid_net(sim, rngs):
    """A 3x3 lossless grid with nine attached nodes, keyed n0..n8."""
    topo = grid_topology(3, 3, base_loss=0.0)
    medium = WirelessMedium(sim, topo, rngs.stream("medium"))
    nodes = {}
    for i, name in enumerate(topo.node_names):
        node = NetNode(sim, name, f"10.0.0.{i + 1}")
        medium.attach(node)
        nodes[name] = node
    return sim, topo, medium, nodes


@pytest.fixture
def pair_net(sim, rngs):
    """Two directly connected lossless nodes a, b."""
    topo = line_topology(2, base_loss=0.0, prefix="h")
    medium = WirelessMedium(sim, topo, rngs.stream("medium"))
    a = NetNode(sim, "h0", "10.1.0.1")
    b = NetNode(sim, "h1", "10.1.0.2")
    medium.attach(a)
    medium.attach(b)
    return sim, medium, a, b


def drive(sim, until=10.0):
    """Run a simulation for the given horizon (helper, not fixture)."""
    sim.run(until=until)
    return sim.now


def read_crc_framed(path):
    """A durable log's records through the shared reader, after checking
    that every line is ``<json>\t<crc32 hex>`` with a matching CRC."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for line in lines:
        body, crc = line.rsplit("\t", 1)
        assert crc == f"{zlib.crc32(body.encode('utf-8')):08x}", line
    records = DurableLog(path).records()
    assert len(records) == len(lines)
    return records


def stage_fleet_shard(campaign_dir, shard, run_id):
    """Commit a RunInfos row for *run_id* into the coordinator shard
    *shard* (relative to *campaign_dir*): all a fleet resume checks
    before it trusts a journaled ``run_complete``."""
    path = Path(campaign_dir) / shard
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(str(path))
    try:
        with conn:
            conn.execute("CREATE TABLE IF NOT EXISTS RunInfos (RunID INTEGER)")
            conn.execute("INSERT INTO RunInfos VALUES (?)", (run_id,))
    finally:
        conn.close()
