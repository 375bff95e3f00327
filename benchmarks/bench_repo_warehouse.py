"""L4 warehouse ingest throughput: write-behind batch ingest vs the
legacy single-file repository's sequential imports.

Regenerates: the perf numbers behind DESIGN.md §13 ("L4 warehouse").
Builds a fleet of synthetic level-3 packages, archives them once through
``LegacyRepository.import_experiment`` calls in a loop (the frozen
single-file path in ``legacy_repository.py``: per-package digest,
Python-level row streaming, one transaction per package) and once
through the warehouse's ``WriteBehindIngester``
(parallel fingerprint prep, grouped ``ATTACH`` copies, batched journal
fsyncs), then cross-checks that the warehouse's materialized read models
answer exactly like direct queries over the source packages.

Run standalone (CI smoke job)::

    PYTHONPATH=src python benchmarks/bench_repo_warehouse.py --quick \
        --out BENCH_repo.json \
        --check-baseline benchmarks/BENCH_repo.baseline.json

or under pytest-benchmark::

    pytest benchmarks/bench_repo_warehouse.py --benchmark-only -s
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from legacy_repository import LegacyRepository
from repro.repo import Warehouse, WriteBehindIngester
from repro.storage.level2 import Level2Store
from repro.storage.level3 import ExperimentDatabase, store_level3

DESC_XML = """<experiment name="{name}" seed="7" comment="bench">
  <platform>
    <actornode id="h1" address="10.0.0.1" abstract="A" />
    <envnode id="h2" address="10.0.0.2" />
  </platform>
</experiment>"""

#: scale label -> number of level-3 packages ingested
SCALES = {"20": 20, "100": 100}
RUNS_PER_PACKAGE = 10
EVENTS_PER_RUN = 250


# ----------------------------------------------------------------------
# Synthetic packages
# ----------------------------------------------------------------------
def _build_package(root: Path, index: int) -> Path:
    """One small level-3 package with unique content and a 2-level plan."""
    # Four experiment families: repeated campaigns of the same
    # experiment land in the same partition, which is the warehouse's
    # intended workload (trend queries over re-runs).
    name = f"bench-exp-{index % 4}"
    store = Level2Store(root / f"l2-{index:03d}")
    store.write_description(DESC_XML.format(name=name))
    plan = [
        {"run_id": r, "treatment": {"f": r % 2}, "replication": r // 2,
         "treatment_index": r % 2, "seed": 1000 * index + r}
        for r in range(RUNS_PER_PACKAGE)
    ]
    store.write_plan(plan)
    for r in range(RUNS_PER_PACKAGE):
        base = 1000.0 * index + 100.0 * r
        store.write_timesync(r, {"h1": {"offset": 0.0, "rtt": 0.001,
                                        "error_bound": 0.0005, "probes": 5}})
        store.write_run_info(r, {"run_id": r, "start_time": base,
                                 "treatment": plan[r]["treatment"]})
        events = [
            {"name": "sd_start_publish", "node": "h2", "local_time": base,
             "params": [], "run_id": r},
            {"name": "sd_start_search", "node": "h1",
             "local_time": base + 0.1, "params": [], "run_id": r},
            {"name": "sd_service_add", "node": "h1",
             "local_time": base + 0.4 + 0.01 * (r % 3),
             "params": ["svc", "h2"], "run_id": r},
        ]
        events.extend(
            {"name": "probe_tick", "node": "h1",
             "local_time": base + 1.0 + 0.001 * i, "params": [i], "run_id": r}
            for i in range(EVENTS_PER_RUN - len(events))
        )
        packets = [
            {"node": "h1", "local_time": base + 0.2, "uid": r,
             "src": "10.0.0.1", "dst": "10.0.0.2", "direction": "tx",
             "payload": f"'pkt{r}'", "run_id": r, "seq": 0},
        ]
        store.write_run_data("h1", r, events, packets)
    return store_level3(store, root / f"pkg-{index:03d}.db")


def build_packages(root: Path, count: int) -> list:
    return [_build_package(root, i) for i in range(count)]


# ----------------------------------------------------------------------
# The two ingest paths
# ----------------------------------------------------------------------
def legacy_sequential(repo_path: Path, packages) -> float:
    start = time.perf_counter()
    with LegacyRepository(repo_path) as repo:
        for package in packages:
            repo.import_experiment(package)
    return time.perf_counter() - start


def warehouse_write_behind(root: Path, packages) -> float:
    start = time.perf_counter()
    with Warehouse(root) as warehouse:
        with WriteBehindIngester(warehouse, batch_size=16) as queue:
            for package in packages:
                queue.submit(package)
            queue.flush()
    return time.perf_counter() - start


def verify_read_models(root: Path, packages) -> None:
    """The warehouse answers exactly like direct level-3 queries."""
    with Warehouse(root) as warehouse:
        assert len(warehouse.experiments()) == len(packages)
        by_source = {e["SourcePath"]: e["ExpID"]
                     for e in warehouse.experiments()}
        for package in packages[:5]:
            exp_id = by_source[str(package)]
            view = warehouse.view(exp_id)
            mv = {r["event_type"]: r["n"]
                  for r in warehouse.event_counts(exp_id=exp_id)}
            with ExperimentDatabase(package) as level3:
                assert view.events() == level3.events()
                assert view.packets() == level3.packets()
                direct = {}
                for event in level3.events():
                    direct[event["name"]] = direct.get(event["name"], 0) + 1
                assert mv == direct
                stats = warehouse.stats(exp_id)
                assert stats["Runs"] == len(level3.run_ids())


def run_scale(workdir: Path, scale: str):
    count = SCALES[scale]
    root = workdir / f"scale-{scale}"
    packages = build_packages(root, count)

    # Writeback barrier between phases: the legacy path never syncs, so
    # without this the warehouse's journal fsyncs get billed for the
    # legacy run's dirty pages (ext4 flushes the shared journal).
    os.sync()
    legacy_s = legacy_sequential(root / "legacy-repo.db", packages)
    os.sync()
    warehouse_root = root / "wh"
    warehouse_s = warehouse_write_behind(warehouse_root, packages)
    verify_read_models(warehouse_root, packages)

    return {
        "packages": count,
        "events_per_package": RUNS_PER_PACKAGE * EVENTS_PER_RUN,
        "legacy_s": round(legacy_s, 4),
        "warehouse_s": round(warehouse_s, 4),
        "speedup": round(legacy_s / warehouse_s, 2) if warehouse_s > 0 else None,
        "packages_per_s": round(count / warehouse_s, 1),
    }


def print_report(results):
    print("\n=== L4 warehouse: write-behind batch ingest vs legacy imports ===")
    header = (f"{'packages':>8} | {'legacy (s)':>10} | {'warehouse (s)':>13} | "
              f"{'speedup':>7} | {'pkg/s':>7}")
    print(header)
    print("-" * len(header))
    for res in results.values():
        print(f"{res['packages']:>8} | {res['legacy_s']:>10.3f} | "
              f"{res['warehouse_s']:>13.3f} | {res['speedup']:>6.2f}x | "
              f"{res['packages_per_s']:>7.1f}")


def check_baseline(results, baseline_path, tolerance=2.0):
    """Fail (return False) if warehouse ingest regressed by more than
    *tolerance*x against the committed baseline."""
    baseline = json.loads(Path(baseline_path).read_text())
    ok = True
    for scale, res in results.items():
        base = baseline.get("scales", {}).get(scale)
        if base is None:
            continue
        if base["warehouse_s"] > 0 and \
                res["warehouse_s"] > base["warehouse_s"] * tolerance:
            print(f"REGRESSION {scale}: {res['warehouse_s']:.3f}s vs "
                  f"baseline {base['warehouse_s']:.3f}s (> {tolerance}x)",
                  file=sys.stderr)
            ok = False
    return ok


def measure(scales, workdir=None):
    owned = workdir is None
    workdir = Path(workdir or tempfile.mkdtemp(prefix="excovery-bench-repo-"))
    try:
        results = {scale: run_scale(workdir, scale) for scale in scales}
    finally:
        if owned:
            shutil.rmtree(workdir, ignore_errors=True)
    return results


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
def test_repo_warehouse_speedup(benchmark, workdir):
    from conftest import run_once

    results = run_once(benchmark, measure, ["20"], workdir)
    print_report(results)
    benchmark.extra_info["results"] = results
    # Scaled-down CI smoke: the batched path must still clearly win.
    assert results["20"]["speedup"] >= 1.5, results


# ----------------------------------------------------------------------
# Standalone CLI (CI smoke job)
# ----------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="20-package scale only (CI smoke)")
    parser.add_argument("--out", default="BENCH_repo.json",
                        help="result JSON path (default: BENCH_repo.json)")
    parser.add_argument("--check-baseline", metavar="PATH",
                        help="fail on >2x regression vs this baseline JSON")
    parser.add_argument("--workdir", help="scratch directory (default: temp)")
    args = parser.parse_args(argv)

    scales = ["20"] if args.quick else list(SCALES)
    results = measure(scales, args.workdir)
    print_report(results)

    payload = {"benchmark": "repo_warehouse", "scales": results}
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    if args.check_baseline:
        if not check_baseline(results, args.check_baseline):
            return 1
        print(f"within 2x of baseline {args.check_baseline}")
    if not args.quick:
        speedup = results["100"]["speedup"]
        if speedup < 3.0:
            print(f"FAIL: warehouse ingest speedup {speedup:.2f}x < 3x "
                  f"at 100 packages", file=sys.stderr)
            return 1
        print(f"warehouse ingest speedup at 100 packages: {speedup:.2f}x (>= 3x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
