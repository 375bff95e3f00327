"""Unit tests for the shared durable log: frame, tail rule, corruption rule."""

import os
import re
import sys
import threading

import pytest

from repro.core.errors import StorageError
from repro.storage import durable_log
from repro.storage.durable_log import DurableLog, _frame_line, fsync_dir
from tests.conftest import read_crc_framed


def test_round_trip_writes_one_crc_frame_per_record(tmp_path):
    log = DurableLog(tmp_path / "sub" / "a.jsonl")
    assert log.records() == []
    log.append([{"i": 0}, {"i": 1}])
    log.append([{"i": 2, "s": "tab\there"}], fsync=False)
    assert read_crc_framed(log.path) == [{"i": 0}, {"i": 1}, {"i": 2, "s": "tab\there"}]


def test_empty_batch_creates_the_file(tmp_path):
    log = DurableLog(tmp_path / "a.jsonl")
    log.append([])
    assert log.path.read_bytes() == b""
    assert log.records() == []


def test_unframed_and_blank_lines_still_parse(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text('{"legacy": 1}\n\n   \n' + _frame_line('{"framed": 2}') + "\n")
    assert DurableLog(path).records() == [{"legacy": 1}, {"framed": 2}]


@pytest.mark.parametrize(
    "line, reason",
    [
        (_frame_line('{"a": 1}').replace("1", "2"), "crc_mismatch"),
        (_frame_line("{not json"), "bad_json"),
        ('{"a": 1}\t12', "truncated"),
        ('{"a": ', "truncated"),
    ],
)
def test_corrupt_complete_line_names_file_and_line(tmp_path, line, reason):
    path = tmp_path / "a.jsonl"
    path.write_text(_frame_line('{"ok": 1}') + "\n\n" + line + "\n")
    with pytest.raises(StorageError, match=rf"{re.escape(str(path))} \(line 3: {reason}\)"):
        DurableLog(path).records()


def test_invalid_utf8_in_a_complete_line_raises(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_bytes(_frame_line('{"s": "zz"}').encode().replace(b"zz", b"z\xff") + b"\n")
    with pytest.raises(StorageError, match="line 1: crc_mismatch"):
        DurableLog(path).records()


def test_torn_tail_longer_than_a_read_chunk_is_cut(tmp_path):
    log = DurableLog(tmp_path / "a.jsonl")
    log.append([{"i": 0}])
    with open(log.path, "ab") as fh:
        fh.write(b"x" * (3 * durable_log._TAIL_CHUNK + 17))
    log.append([{"i": 1}])
    assert read_crc_framed(log.path) == [{"i": 0}, {"i": 1}]


def test_file_that_is_all_torn_tail_is_emptied(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_bytes(b'{"never": "finished"')
    DurableLog(path).append([{"i": 0}])
    assert read_crc_framed(path) == [{"i": 0}]


def test_fsync_policy(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        synced.append(os.readlink(f"/proc/self/fd/{fd}"))
        real_fsync(fd)

    monkeypatch.setattr(durable_log.os, "fsync", fsync)
    log = DurableLog(tmp_path / "a.jsonl")
    log.append([{"i": 0}])  # creates the file: file + directory
    assert synced == [os.path.realpath(log.path), os.path.realpath(tmp_path)]
    synced.clear()
    log.append([{"i": 1}])
    assert synced == [os.path.realpath(log.path)]
    synced.clear()
    log.append([{"i": 2}], fsync=False)
    DurableLog(tmp_path / "b.jsonl").append([{"i": 0}], fsync=False)
    assert synced == []


def test_concurrent_appends_never_interleave(tmp_path):
    log = DurableLog(tmp_path / "a.jsonl")

    def writer(w):
        for i in range(50):
            log.append([{"w": w, "i": i}, {"w": w, "i": i, "pair": True}], fsync=False)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    records = read_crc_framed(log.path)
    assert len(records) == 400
    # Each batch is one write: a record's pair always follows it directly.
    for first, second in zip(records[::2], records[1::2]):
        assert second == dict(first, pair=True)


def test_fsync_dir_tolerates_a_missing_directory(tmp_path):
    fsync_dir(tmp_path)
    fsync_dir(tmp_path / "missing")
