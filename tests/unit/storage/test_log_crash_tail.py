"""Crash-tail behaviour of every journal and ledger, through each one's
own public API.

Each log is exercised the way a crash leaves it: (a) a torn final
append followed by a fresh instance's append, (b) one flipped byte in a
complete middle record, (c) another writer's append still in progress.
"""

import re
import shutil
from collections import namedtuple

import pytest

from repro.campaign.journal import CampaignJournal
from repro.core.errors import StorageError
from repro.core.recovery import Journal
from repro.fabric.election import ElectionLedger
from repro.fabric.leases import LeaseStore
from repro.faults.leases import FaultLeaseStore, make_lease
from repro.repo.fingerprint import ExperimentKey
from repro.repo.journal import IngestJournal
from repro.storage.level2 import Level2Store

#: Records written before each crash.
N = 3

Log = namedtuple("Log", "path write replay")

_KEY = ExperimentKey(name="n", comment="", ee_version="v", exp_xml="<x/>",
                     factor_fingerprint="fp", content_digest="d")


def _ingest_write(root, i):
    journal = IngestJournal(root)
    journal.append_many([journal.begin_record(journal.next_ticket(), f"{i}.db", _KEY)])


def _fleet_lease_write(root, i):
    store = LeaseStore(root)
    store.restore()
    store.grant("w0", [i])


def _fleet_lease_replay(root):
    store = LeaseStore(root)
    store.restore()
    return sorted(run for lease in store.active() for run in lease.run_ids)


def _election_replay(root):
    # Every forced claim bumps the epoch by exactly one, so the epoch
    # counts the claims that replayed.
    return list(range(ElectionLedger(root).epoch()))


LOGS = [
    pytest.param(
        Log(
            lambda root: Level2Store(root).journal_path,
            lambda root, i: Journal(Level2Store(root)).record_run_complete(i),
            lambda root: sorted(Journal(Level2Store(root)).completed_runs()),
        ),
        id="l2-journal",
    ),
    pytest.param(
        Log(
            lambda root: CampaignJournal(root).path,
            lambda root, i: CampaignJournal(root).record_run_complete(i, "w0", None, "s.db"),
            lambda root: sorted(CampaignJournal(root).completed()),
        ),
        id="campaign-journal",
    ),
    pytest.param(
        Log(
            lambda root: IngestJournal(root).path,
            _ingest_write,
            lambda root: [int(r["source"][:-3]) for r in IngestJournal(root).incomplete()],
        ),
        id="ingest-journal",
    ),
    pytest.param(
        Log(
            lambda root: root / "n1.jsonl",
            lambda root, i: FaultLeaseStore(root).acquire(
                make_lease(node="n1", run_id=0, kind="msg_loss", fault_id=i,
                           acquired_at=0.0, duration=1.0),
            ),
            lambda root: [lease["fault_id"] for lease in FaultLeaseStore(root).active("n1")],
        ),
        id="fault-leases",
    ),
    pytest.param(
        Log(lambda root: LeaseStore(root).path, _fleet_lease_write, _fleet_lease_replay),
        id="fleet-leases",
    ),
    pytest.param(
        Log(
            lambda root: ElectionLedger(root).path,
            lambda root, i: ElectionLedger(root).campaign(f"c{i}", "127.0.0.1:0", force=True),
            _election_replay,
        ),
        id="election-ledger",
    ),
]


def _filled(log, tmp_path):
    root = tmp_path / "log"
    for i in range(N):
        log.write(root, i)
    return root, log.path(root)


@pytest.mark.parametrize("log", LOGS)
def test_torn_tail_is_cut_by_the_next_append(log, tmp_path):
    root, path = _filled(log, tmp_path)
    last = path.read_bytes().splitlines()[-1]
    with open(path, "ab") as fh:
        fh.write(last[: len(last) // 2])  # the crash tore this append
    log.write(root, N)  # a fresh instance, as after a restart
    assert log.replay(root) == list(range(N + 1))
    assert path.read_bytes().endswith(b"\n")


@pytest.mark.parametrize("log", LOGS)
def test_corrupt_middle_line_raises(log, tmp_path):
    root, path = _filled(log, tmp_path)
    data = bytearray(path.read_bytes())
    data[data.index(b"\n") + 3] ^= 0x01  # inside line 2's JSON text
    path.write_bytes(bytes(data))
    with pytest.raises(StorageError, match=rf"{re.escape(str(path))} \(line 2\b"):
        log.replay(root)


@pytest.mark.parametrize("log", LOGS)
def test_unterminated_final_line_is_ignored(log, tmp_path):
    root, path = _filled(log, tmp_path)
    # Record N exactly as the log would write it, minus its newline: an
    # append another process has not finished yet.
    shutil.copytree(root, tmp_path / "ahead")
    log.write(tmp_path / "ahead", N)
    in_progress = log.path(tmp_path / "ahead").read_bytes().splitlines()[-1]
    with open(path, "ab") as fh:
        fh.write(in_progress)
    assert log.replay(root) == list(range(N))
