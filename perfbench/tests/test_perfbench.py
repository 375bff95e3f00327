"""The benchmark's own tests: determinism, output checks, contract.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH_DIR = Path(run.__file__).resolve().parent
ROOT = BENCH_DIR.parent
SIM_STATS = ("runs", "packets", "events", "l3_rows", "digest", "sim_s", "kernel_callbacks")


def _one_round(workload, seed, workdir):
    workload.import_program()
    workload.setup(seed, workdir)
    workload.prepare()
    return workload.check(workload.execute(0, workdir))


def test_same_seed_gives_identical_simulation(tmp_path):
    first = _one_round(workloads.Control(replications=4), 11, tmp_path / "a")
    second = _one_round(workloads.Control(replications=4), 11, tmp_path / "b")
    other = _one_round(workloads.Control(replications=4), 12, tmp_path / "c")
    assert first.errors == [] and second.errors == []
    assert {k: first.stats[k] for k in SIM_STATS} == {k: second.stats[k] for k in SIM_STATS}
    assert other.stats["digest"] != first.stats["digest"]


def test_campaign_digest_equals_serial_execution(tmp_path):
    from repro.campaign import run_campaign
    from repro.campaign.merge import database_digest

    campaign = workloads.Campaign(replications=3)
    result = _one_round(campaign, 5, tmp_path / "parallel")
    assert result.errors == []
    serial = run_campaign(
        campaign.description, tmp_path / "serial", db_path=tmp_path / "serial.db",
        jobs=1, pool="thread", config=campaign.platform_config(),
    )
    assert serial.executed_runs == list(range(campaign.planned))
    assert result.stats["digest"] == database_digest(tmp_path / "serial.db")


def test_corrupted_level3_fails_the_check(tmp_path):
    workload = workloads.Control(replications=2)
    workload.import_program()
    workload.setup(3, tmp_path)
    handle = workload.execute(0, tmp_path)
    assert workloads.check_level3(handle["db"]) == []
    with sqlite3.connect(handle["db"]) as conn:
        conn.execute("UPDATE Events SET CommonTime = CommonTime + 1.0 WHERE rowid = 1")
    assert workloads.check_level3(handle["db"])
    assert workload.check(handle).errors


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize(
    "workload, trace",
    [("paper", 0), ("control", 0), ("campaign", 0), ("warehouse", 0), ("campaign", 1)],
)
def test_printed_metric_names_match_benchmark_json(workload, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    proc = _run(["--workload", workload, "--seed", "2", "--seconds", "0", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared[key]]
    for metric in declared[key]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        ".work", ".traces", "__pycache__"))
    proc = _run(["--workload", "control", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_trace_target_fails_the_traced_run(monkeypatch):
    import layers
    from repro.core.events import EventBus

    watch = EventBus.__dict__["watch"]
    monkeypatch.setattr(
        layers, "SPAN_TARGETS",
        [("bus.watch", "repro.core.events:EventBus", "watch"),
         ("bus.gone", "repro.core.events:EventBus", "no_such_method")],
    )
    with pytest.raises(LookupError, match="no_such_method"):
        with layers.LayerTracer():
            pass
    assert EventBus.__dict__["watch"] is watch
