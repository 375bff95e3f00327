#!/usr/bin/env python3
"""End-to-end benchmark of the ExCovery pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 1

Workloads: ``paper``, ``control``, ``campaign``, ``warehouse`` (see
``workloads.py`` for why each exists).  The run first times the set-up
in fresh interpreters, then repeats identical rounds of its workload for
``--seconds``, checks every round's outputs, prints a readable report and
ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, the self-time budget and the
tracing overhead; the spans are written to ``perfbench/.traces/``.

Exit status: 0 when every output check passed, 1 when one failed (the
JSON line then says ``"correct": false``), 2 when the benchmark could not
run at all (for example without the program's ``src/`` tree, or when a
function the traced run wraps no longer exists).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402  (benchmark modules; they import no program code)
import workloads  # noqa: E402

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0
#: Operations beyond the tail percentile.
TAIL_BEYOND = 10

#: End-to-end metrics: (name, unit).  Throughput is runs/s, or ingests/s
#: on ``warehouse``; latency is per run, or per query on ``warehouse``;
#: the report prints them under the names in :data:`READABLE`.
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
]
READABLE = {
    "throughput_per_s": ("runs_per_s", "ingests_per_s"),
    "latency_ms.p50": ("run_ms.p50", "query_ms.p50"),
    "latency_ms.tail": ("run_ms.tail", "query_ms.tail"),
}


class RoundView:
    """One traced round, as the per-layer metric functions see it."""

    def __init__(self, tracer: layers.LayerTracer, result: workloads.RoundResult) -> None:
        self.self_s = tracer.self_times()
        self.incl_s = tracer.inclusive_times()
        self.counts = tracer.counts
        self.stats = result.stats
        self.extra = result.extra

    def st(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def count(self, name: str) -> int:
        return int(self.counts.get(name, 0))


def _per_second(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


#: Per-layer metrics of a traced round: (name, unit, value).  ``_s``
#: values are self times: span time minus the spans nested inside.
#: ``import.*`` comes from the set-up probes, ``trace.overhead`` from the
#: traced/untraced pair; both are filled in by :func:`per_layer_metrics`.
PER_LAYER: List[Tuple[str, str, Optional[Callable[[RoundView], float]]]] = [
    ("import.s", "s", None),
    ("import.modules", "count", None),
    ("xmlio.parse_s", "s", lambda r: r.st("xmlio.parse")),
    ("plan.s", "s", lambda r: r.st("plan.generate")),
    ("platform.build_s", "s", lambda r: r.st("platform.build")),
    ("rpc.calls", "count", lambda r: r.count("rpc.calls")),
    ("rpc.casts", "count", lambda r: r.count("rpc.casts")),
    ("rpc.codec_s", "s", lambda r: r.st("rpc.codec")),
    ("rpc.codec_bytes", "bytes", lambda r: r.count("rpc.codec_bytes")),
    ("rpc.handle_s", "s", lambda r: r.st("rpc.handle")),
    ("bus.registers", "count", lambda r: r.count("bus.register")),
    ("bus.watches", "count", lambda r: r.count("bus.watch")),
    ("bus.replayed", "count", lambda r: r.count("bus.replayed")),
    ("bus.offers", "count", lambda r: r.count("bus.offers")),
    ("bus.s", "s", lambda r: r.st("bus.register", "bus.watch", "bus.cancel")),
    ("master.execute_s", "s", lambda r: r.incl_s.get("master.execute", 0.0)),
    ("journal.appends", "count", lambda r: r.count("journal.append")),
    ("journal.s", "s", lambda r: r.st("journal.append")),
    ("kernel.callbacks", "count", lambda r: r.stats.get("kernel_callbacks", 0)),
    ("kernel.sim_s", "s", lambda r: r.stats.get("sim_s", 0.0)),
    (
        "kernel.callbacks_per_s",
        "1/s",
        lambda r: _per_second(r.stats.get("kernel_callbacks", 0), r.incl_s.get("kernel.run", 0.0)),
    ),
    ("kernel.self_s", "s", lambda r: r.st("kernel.run")),
    ("medium.transmits", "count", lambda r: r.count("medium.transmit")),
    ("medium.transmit_s", "s", lambda r: r.st("medium.transmit")),
    ("capture.packets", "count", lambda r: r.stats.get("packets", 0)),
    ("l2.records", "count", lambda r: r.stats.get("l2_records", 0)),
    ("l2.bytes", "bytes", lambda r: r.stats.get("l2_bytes", 0)),
    ("l2.append_s", "s", lambda r: r.st("l2.append")),
    ("condition.s", "s", lambda r: r.st("condition.run", "condition.scope")),
    ("l3.write_s", "s", lambda r: r.st("l3.write")),
    ("l3.rows", "count", lambda r: r.stats.get("l3_rows", 0) if r.count("l3.write") else 0),
    ("l3.digest_s", "s", lambda r: r.st("l3.digest")),
    ("campaign.busy_frac", "ratio", lambda r: r.extra.get("campaign.busy_frac", 0.0)),
    ("campaign.first_run_s", "s", lambda r: r.extra.get("campaign.first_run_s", 0.0)),
    (
        "campaign.phase_ms.preparation",
        "ms",
        lambda r: r.extra.get("campaign.phase_ms.preparation", 0.0),
    ),
    (
        "campaign.phase_ms.execution",
        "ms",
        lambda r: r.extra.get("campaign.phase_ms.execution", 0.0),
    ),
    ("campaign.phase_ms.cleanup", "ms", lambda r: r.extra.get("campaign.phase_ms.cleanup", 0.0)),
    ("campaign.retries", "count", lambda r: r.extra.get("campaign.retries", 0)),
    ("cjournal.appends", "count", lambda r: r.count("cjournal.append")),
    ("cjournal.s", "s", lambda r: r.st("cjournal.append")),
    ("merge.s", "s", lambda r: r.st("merge.shards")),
    ("merge.rows", "count", lambda r: r.stats.get("l3_rows", 0) if r.count("merge.shards") else 0),
    ("repo.fingerprint_s", "s", lambda r: r.st("repo.fingerprint")),
    ("repo.copy_s", "s", lambda r: r.st("repo.copy")),
    ("repo.views_s", "s", lambda r: r.st("repo.views")),
    ("repo.journal_appends", "count", lambda r: r.count("repo.journal")),
    ("repo.journal_s", "s", lambda r: r.st("repo.journal")),
] + [
    (f"repo.query_s.{kind}", "s", lambda r, kind=kind: r.st(f"repo.query.{kind}"))
    for kind in workloads.QUERY_KINDS
] + [
    ("repo.cache_hit_ratio", "ratio", lambda r: r.extra.get("repo.cache_hit_ratio", 0.0)),
    ("trace.overhead", "ratio", None),
]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(values: List[float]) -> Tuple[float, float]:
    """(percentile, value): the highest percentile with ``TAIL_BEYOND``
    values beyond it, i.e. the eleventh-largest value; the maximum when
    no percentile from the median up has that many beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------
def setup_probe(args: argparse.Namespace) -> int:
    """Child side: import, build, parse, plan, construct; report; exit."""
    workload = workloads.make_workload(args.workload)
    before = len(sys.modules)
    start = time.perf_counter()
    workload.import_program()
    import_s = time.perf_counter() - start
    modules = len(sys.modules) - before
    steps = workload.setup(args.seed, Path(args.setup_probe))
    print("READY " + json.dumps({"import_s": import_s, "modules": modules, **steps}), flush=True)
    return 0


def run_setup_probe(args: argparse.Namespace, workdir: Path) -> Dict[str, float]:
    """Parent side: wall time from process start to the READY line."""
    workdir.mkdir(parents=True)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--setup-probe", str(workdir),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    # The READY line is read as it arrives, so a hung probe would block
    # the read; the watchdog kills it instead.
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready: Optional[Dict[str, float]] = None
    wall = 0.0
    try:
        for line in proc.stdout:
            if line.startswith("READY "):
                wall = time.perf_counter() - start
                ready = json.loads(line[len("READY "):])
                break
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if ready is None or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    ready["wall_s"] = wall
    return ready


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def measure(
    workload: workloads.Workload, seconds: float, trace: bool, workdir: Path
) -> List[Tuple[Optional[layers.LayerTracer], workloads.RoundResult]]:
    """Rounds while the next one is expected to end within *seconds*
    (at least one); with *trace*, odd rounds are traced and at least one
    round of each kind runs."""
    rounds = []
    start = time.perf_counter()
    index = 0
    while True:
        round_start = time.perf_counter()
        # Every round starts from the same heap: the previous round's
        # garbage and check results are not collected inside this one.
        gc.collect()
        tracer = layers.LayerTracer() if trace and index % 2 == 1 else None
        if tracer is not None:
            traced_start = time.perf_counter()
            with tracer:
                handle = workload.execute(index, workdir)
            tracer.wall_s = time.perf_counter() - traced_start
        else:
            handle = workload.execute(index, workdir)
        rounds.append((tracer, workload.check(handle)))
        index += 1
        now = time.perf_counter()
        if now + (now - round_start) - start > seconds and (not trace or index >= 2):
            return rounds


#: Statistics that must be identical in every round of one run.
DETERMINISTIC_STATS = (
    "runs", "packets", "events", "l3_rows", "aborted", "digest", "sim_s",
    "kernel_callbacks", "packages", "package_runs", "package_events", "package_packets",
    "exp_ids",
)


def round_errors(rounds) -> List[str]:
    errors = []
    first = rounds[0][1].stats
    for i, (_tracer, result) in enumerate(rounds):
        errors += [f"round {i}: {e}" for e in result.errors]
        for key in DETERMINISTIC_STATS:
            if key in first and result.stats.get(key) != first[key]:
                errors.append(
                    f"round {i}: {key}={result.stats.get(key)!r} differs from "
                    f"round 0's {first[key]!r} for the same input"
                )
    return errors


def end_to_end_metrics(rounds, setup_s: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Metrics of the untraced rounds, plus what the report adds to them.

    Every round repeats the same operations and is measured whole.
    Throughput is a round's operations over the wall time of the fastest
    round: round walls switch between regimes that last seconds (shared
    disk and CPU), which moves a median round by tens of percent from
    run to run and the fastest round less.  p50 and tail are the medians over the
    rounds of each round's p50 and tail.  A round always holds the same
    number of operations, so the tail is the same percentile in every
    round and does not depend on how many rounds the run fits.
    """
    plain = [result for tracer, result in rounds if tracer is None]
    ops = [list(r.op_ms.values()) for r in plain]
    tails = [tail(values) for values in ops]
    children_kb = max((r.extra.get("children_peak_kb", 0.0) for r in plain), default=0.0)
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": plain[0].completed_ops / min(r.wall_s for r in plain),
        "latency_ms.p50": statistics.median(statistics.median(values) for values in ops),
        "latency_ms.tail": statistics.median(value for _p, value in tails),
        "peak_rss_mb": workloads.peak_rss_mb() + children_kb / 1024.0,
    }
    notes = {"tail_p": tails[0][0], "ops": len(ops[0]), "rounds": len(plain)}
    return metrics, notes


def per_layer_metrics(
    rounds, probes: List[Dict[str, float]]
) -> Tuple[Dict[str, float], List[str], Dict[str, float], float]:
    """Medians over the traced rounds, counts checked to repeat exactly;
    also the self-time budget and the mean traced execute-step wall."""
    traced = [(RoundView(t, r), r) for t, r in rounds if t is not None]
    plain_walls = [r.wall_s for t, r in rounds if t is None]
    errors = []
    outside_spans = {
        "import.s": statistics.median(p["import_s"] for p in probes),
        "import.modules": statistics.median(p["modules"] for p in probes),
        "trace.overhead": statistics.median(r.wall_s for _v, r in traced)
        / statistics.median(plain_walls),
    }
    metrics: Dict[str, float] = {}
    for name, unit, fn in PER_LAYER:
        if fn is None:
            metrics[name] = outside_spans[name]
            continue
        values = [fn(view) for view, _r in traced]
        if unit == "count":
            if any(v != values[0] for v in values):
                errors.append(f"per-layer count {name} differs between traced rounds: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    budget: Dict[str, float] = {}
    for view, _r in traced:
        for name, seconds in view.self_s.items():
            budget[name] = budget.get(name, 0.0) + seconds / len(traced)
    budget_wall = statistics.mean(t.wall_s for t, _r in rounds if t is not None)
    return metrics, errors, budget, budget_wall


def write_spans(rounds, path: Path) -> int:
    path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        for index, (tracer, _result) in enumerate(rounds):
            if tracer is None:
                continue
            for record in tracer.records():
                fh.write(json.dumps({"round": index, **record}) + "\n")
                written += 1
    return written


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def report_header(args, workload, rounds, probes, elapsed: float) -> None:
    stats = rounds[0][1].stats
    shown = {k: v for k, v in stats.items() if k not in ("exp_ids",)}
    if "digest" in shown and shown["digest"]:
        shown["digest"] = shown["digest"][:16]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rounds)} round(s) in {elapsed:.1f} s")
    print(f"input: {workload.describe_input()}")
    print("per round: " + " ".join(f"{k}={_fmt(v) if isinstance(v, (int, float)) else v}"
                                   for k, v in shown.items()))
    setup = probes[-1]
    steps = " ".join(f"{k}={_fmt(v)}" for k, v in setup.items() if k != "wall_s")
    print(f"set-up probes ({len(probes)} fresh interpreters, setup_s is their median): "
          f"{' '.join(_fmt(p['wall_s']) for p in probes)} s; last: {steps}")


def report_end_to_end(args, metrics, notes, attempted: int, failed: int) -> None:
    warehouse = 1 if args.workload == "warehouse" else 0
    for name, unit in END_TO_END:
        readable = READABLE[name][warehouse] if name in READABLE else name
        line = f"  {readable:<16} {_fmt(metrics[name]):>12} {unit}"
        if name == "latency_ms.tail":
            line += f"   (p{notes['tail_p']:.3g} of the {notes['ops']} operations of a round)"
        if readable != name:
            line += f"   [{name}]"
        print(line)
    print(f"  {'failed_frac':<16} {_fmt(failed / attempted):>12}    ({failed} of {attempted})")
    print(f"  (throughput from the fastest of N={notes['rounds']} untraced rounds; "
          "latencies are medians over them)")


def report_per_layer(metrics, budget, wall: float, rounds) -> None:
    traced = [r for t, r in rounds if t is not None]
    plain = [r for t, r in rounds if t is None]
    print(f"timed part of a round: median {statistics.median(r.wall_s for r in plain):.4g} s "
          f"untraced, {statistics.median(r.wall_s for r in traced):.4g} s traced "
          f"(trace.overhead x{metrics['trace.overhead']:.3f})")
    print(f"self-time budget: mean seconds per traced round, of {wall:.4g} s in the "
          "round's execute step (timed part plus untimed per-round preparation):")
    covered = 0.0
    for name, seconds in sorted(budget.items(), key=lambda kv: -kv[1]):
        covered += seconds
        print(f"  {name:<36} {seconds:10.4f} s {100.0 * seconds / wall:6.1f}%")
    print(f"  {'(no span: benchmark, glue)':<36} {wall - covered:10.4f} s "
          f"{100.0 * (wall - covered) / wall:6.1f}%")
    units = {name: unit for name, unit, _fn in PER_LAYER}
    print("per-layer metrics:")
    for name, value in metrics.items():
        print(f"  {name:<36} {_fmt(value):>14} {units[name]}")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    if args.setup_probe:
        return setup_probe(args)

    workload = workloads.make_workload(args.workload)
    workdir = BENCH_DIR / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        probes = [run_setup_probe(args, workdir / f"probe{i}") for i in range(SETUP_PROBES)]
        setup_s = statistics.median(p["wall_s"] for p in probes)

        workload.import_program()
        import repro

        if not Path(repro.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if isinstance(workload, workloads.WarehouseLoad):
            workload.attach(workdir / f"probe{SETUP_PROBES - 1}")
        else:
            workload.setup(args.seed, workdir / "main")
        workload.prepare()

        start = time.perf_counter()
        try:
            rounds = measure(workload, args.seconds, bool(args.trace), workdir)
        except LookupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = round_errors(rounds)
    attempted = sum(r.attempted for _t, r in rounds)
    failed = sum(r.failed for _t, r in rounds)
    report_header(args, workload, rounds, probes, elapsed)
    if args.trace:
        metrics, count_errors, budget, budget_wall = per_layer_metrics(rounds, probes)
        errors += count_errors
        report_per_layer(metrics, budget, budget_wall, rounds)
        units = {name: unit for name, unit, _fn in PER_LAYER}
        spans_path = BENCH_DIR / ".traces" / f"{args.workload}-seed{args.seed}.jsonl"
        print(f"spans: {write_spans(rounds, spans_path)} written to "
              f"{spans_path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end_metrics(rounds, setup_s)
        report_end_to_end(args, metrics, notes, attempted, failed)
        units = dict(END_TO_END)
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print("checks: " + ("ok" if not errors else f"{len(errors)} failed"))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
