"""Storage level 2: the intermediate filesystem hierarchy.

Sec. IV-F: *"The second level is the intermediate storage for all concrete
experiment data: experiment results and the software artifacts used during
execution.  Each log file and measurement is stored corresponding to a run
identifier and associated to the node it originates from.  Currently,
ExCovery uses a special hierarchy on a file system to store second level
data."*

Layout::

    <root>/
      experiment.xml              # level-1 description as executed
      journal.jsonl               # recovery journal (append-only)
      plan.json                   # exact treatment sequence
      master/
        topology_before.json
        topology_after.json
        timesync/run_<id>.json    # per-run offset measurements
        measurements/<name>.json  # experiment-scope measurements
      nodes/<node>/
        log.txt
        experiment_events.jsonl
        runs/<run id>/
          events.jsonl
          packets.jsonl
          traces.jsonl            # harness span records -> L3 RunTraces
          extra/<plugin>.json     # plugins' separate storage location
      eefiles/<name>              # executables/artefacts (EEFiles table)
      leases/<node>.jsonl         # fault leases (repro.faults.leases)
      master/fault_leases.jsonl   # reconciled-leak log -> L3 FaultLeases
      master/traces.jsonl         # experiment-scope span records
      metrics.json                # metrics registry snapshot (repro metrics)
      quarantine/...              # salvage mode's bad-record sidecar

Everything is JSON-on-disk: human-inspectable, diff-able, and exactly what
the conditioning stage consumes.

Every append-only file is **CRC-framed** (:mod:`repro.storage.durable_log`);
the logs are :class:`~repro.storage.durable_log.DurableLog` files.  Run
streams (``events.jsonl`` / ``packets.jsonl`` / ``traces.jsonl``) keep
their own reader, because a truncated final run record is lost data, not
an unfinished append: the frame is what lets salvage mode (DESIGN.md §11)
tell an intact record from a truncated or bit-flipped one.  Readers either
hard-fail on the first corrupt record (the default — corruption must never
pass silently) or, with ``salvage=True``, quarantine the bad lines into the
``quarantine/`` sidecar and keep conditioning the intact rest.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, IO, Iterator, List, Optional, Tuple

from repro.core.errors import StorageError
from repro.storage.durable_log import DurableLog, _frame_line, _parse_record_line

__all__ = ["Level2Store", "RunWriter"]


def _write_json(path: Path, data: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=None, separators=(",", ":"), sort_keys=True)


def _read_json(path: Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class RunWriter:
    """Buffered ingest for one run's collection phase.

    The master collects a run's events and packets node by node; writing
    each batch through :meth:`Level2Store.write_run_data` pays a file
    open/close per call.  A ``RunWriter`` instead keeps one append handle
    per ``(node, stream)`` open for the duration of the run's collection
    and writes serialized records in batches, so per-record cost is one
    ``json.dumps`` plus an amortized buffered write.

    Use as a context manager (or call :meth:`close`); records are only
    guaranteed on disk after the writer is closed or flushed.  Appending
    an empty batch still creates the stream file, preserving the
    enumeration semantics of :meth:`Level2Store.write_run_data`.
    """

    #: Buffered lines per stream before an actual file write.
    FLUSH_RECORDS = 1024

    def __init__(self, store: "Level2Store", run_id: int,
                 flush_records: Optional[int] = None) -> None:
        self.store = store
        self.run_id = int(run_id)
        self._flush_records = flush_records or self.FLUSH_RECORDS
        self._handles: Dict[Tuple[str, str], IO[str]] = {}
        self._buffers: Dict[Tuple[str, str], List[str]] = {}
        self._closed = False
        #: Total records accepted (handy for ingest benchmarks).
        self.records_written = 0

    # ------------------------------------------------------------------
    def _stream(self, node_id: str, stream: str) -> Tuple[str, str]:
        if self._closed:
            raise StorageError(f"RunWriter for run {self.run_id} is closed")
        key = (node_id, stream)
        if key not in self._handles:
            path = (
                self.store._node_dir(node_id) / "runs" / str(self.run_id) / stream
            )
            path.parent.mkdir(parents=True, exist_ok=True)
            self._handles[key] = open(path, "a", encoding="utf-8")
            self._buffers[key] = []
            self.store._invalidate_enumeration()
        return key

    def append(self, node_id: str, stream: str, records: List[Dict[str, Any]]) -> None:
        key = self._stream(node_id, stream)
        buffer = self._buffers[key]
        for rec in records:
            buffer.append(_frame_line(json.dumps(rec, sort_keys=True)))
        self.records_written += len(records)
        if len(buffer) >= self._flush_records:
            self._flush_stream(key)

    def add_events(self, node_id: str, records: List[Dict[str, Any]]) -> None:
        self.append(node_id, "events.jsonl", records)

    def add_packets(self, node_id: str, records: List[Dict[str, Any]]) -> None:
        self.append(node_id, "packets.jsonl", records)

    def add_traces(self, node_id: str, records: List[Dict[str, Any]]) -> None:
        """Harness span records (:mod:`repro.obs.trace`) for this run.

        Same CRC-framed buffered path as events/packets; the records feed
        the L3 ``RunTraces`` extension table, never Table I.
        """
        self.append(node_id, "traces.jsonl", records)

    # ------------------------------------------------------------------
    def _flush_stream(self, key: Tuple[str, str]) -> None:
        buffer = self._buffers[key]
        if buffer:
            self._handles[key].write("\n".join(buffer) + "\n")
            buffer.clear()

    def flush(self) -> None:
        """Write out every buffered record (handles stay open)."""
        for key in self._handles:
            self._flush_stream(key)
            self._handles[key].flush()

    def close(self) -> None:
        if self._closed:
            return
        try:
            for key, fh in self._handles.items():
                self._flush_stream(key)
                fh.close()
        finally:
            self._handles.clear()
            self._buffers.clear()
            self._closed = True

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Level2Store:
    """One execution's intermediate storage rooted at a directory.

    With ``salvage=True`` the run-stream readers quarantine corrupt
    records (truncated tails, CRC mismatches) instead of raising: the bad
    raw lines are copied under ``quarantine/`` at their original relative
    path, a per-(run, node, stream) salvage record counts what was kept
    and dropped, and conditioning continues over the intact records.  The
    default (``salvage=False``) hard-fails on the first corrupt record —
    partial data must never flow into level 3 unannounced.
    """

    def __init__(self, root, salvage: bool = False) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.salvage = bool(salvage)
        # Enumeration caches (node_ids / run_ids): every write path that
        # can add or remove nodes or runs goes through this instance and
        # calls _invalidate_enumeration, so a cached listing is never
        # stale for the writer that produced it.  Conditioning and merge
        # construct fresh stores, so cross-process staleness cannot occur.
        self._node_ids_cache: Optional[List[str]] = None
        self._run_ids_cache: Optional[List[int]] = None
        #: ``{(run, node, stream): salvage record}`` from this instance's
        #: salvage-mode reads (also mirrored to quarantine/ on disk).
        self._salvage: Dict[Tuple[int, str, str], Dict[str, Any]] = {}

    def _invalidate_enumeration(self) -> None:
        self._node_ids_cache = None
        self._run_ids_cache = None

    # ------------------------------------------------------------------
    # Level-1 artefacts
    # ------------------------------------------------------------------
    def write_description(self, xml_text: str) -> None:
        (self.root / "experiment.xml").write_text(xml_text, encoding="utf-8")

    def read_description(self) -> str:
        path = self.root / "experiment.xml"
        if not path.exists():
            raise StorageError(f"no experiment.xml under {self.root}")
        return path.read_text(encoding="utf-8")

    def write_plan(self, plan_records: List[Dict[str, Any]]) -> None:
        _write_json(self.root / "plan.json", plan_records)

    def read_plan(self) -> List[Dict[str, Any]]:
        return _read_json(self.root / "plan.json")

    # ------------------------------------------------------------------
    # Journal (recovery)
    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> Path:
        return self.root / "journal.jsonl"

    def append_journal(self, record: Dict[str, Any]) -> None:
        # Unsynced: a run whose run_complete a power cut lost is re-run.
        DurableLog(self.journal_path).append([record], fsync=False)

    def read_journal(self) -> List[Dict[str, Any]]:
        return DurableLog(self.journal_path).records()

    # ------------------------------------------------------------------
    # Master-side measurements
    # ------------------------------------------------------------------
    def write_topology(self, phase: str, snapshot: Dict[str, Any]) -> None:
        if phase not in ("before", "after"):
            raise StorageError(f"topology phase must be before/after, got {phase!r}")
        _write_json(self.root / "master" / f"topology_{phase}.json", snapshot)

    def read_topology(self, phase: str) -> Optional[Dict[str, Any]]:
        path = self.root / "master" / f"topology_{phase}.json"
        return _read_json(path) if path.exists() else None

    def write_timesync(self, run_id: int, measurements: Dict[str, Dict[str, Any]]) -> None:
        _write_json(self.root / "master" / "timesync" / f"run_{run_id}.json", measurements)

    def read_timesync(self, run_id: int) -> Dict[str, Dict[str, Any]]:
        path = self.root / "master" / "timesync" / f"run_{run_id}.json"
        if not path.exists():
            raise StorageError(f"no timesync data for run {run_id}")
        return _read_json(path)

    def write_experiment_measurement(self, name: str, content: Any) -> None:
        _write_json(self.root / "master" / "measurements" / f"{name}.json", content)

    def experiment_measurements(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        directory = self.root / "master" / "measurements"
        if directory.exists():
            for path in sorted(directory.glob("*.json")):
                out[path.stem] = _read_json(path)
        return out

    # ------------------------------------------------------------------
    # Per-node data
    # ------------------------------------------------------------------
    def _node_dir(self, node_id: str) -> Path:
        return self.root / "nodes" / node_id

    def write_node_log(self, node_id: str, log_text: str) -> None:
        path = self._node_dir(node_id) / "log.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(log_text, encoding="utf-8")
        self._invalidate_enumeration()

    def read_node_log(self, node_id: str) -> str:
        path = self._node_dir(node_id) / "log.txt"
        return path.read_text(encoding="utf-8") if path.exists() else ""

    def write_node_experiment_events(self, node_id: str, events: List[Dict[str, Any]]) -> None:
        path = self._node_dir(node_id) / "experiment_events.jsonl"
        DurableLog(path).append(events, fsync=False)
        self._invalidate_enumeration()

    def read_node_experiment_events(self, node_id: str) -> List[Dict[str, Any]]:
        return DurableLog(self._node_dir(node_id) / "experiment_events.jsonl").records()

    def write_run_data(
        self,
        node_id: str,
        run_id: int,
        events: List[Dict[str, Any]],
        packets: List[Dict[str, Any]],
    ) -> None:
        run_dir = self._node_dir(node_id) / "runs" / str(run_id)
        DurableLog(run_dir / "events.jsonl").append(events, fsync=False)
        DurableLog(run_dir / "packets.jsonl").append(packets, fsync=False)
        self._invalidate_enumeration()

    def run_writer(self, run_id: int, flush_records: Optional[int] = None) -> RunWriter:
        """Open a buffered :class:`RunWriter` for *run_id*'s collection."""
        return RunWriter(self, run_id, flush_records=flush_records)

    def write_extra_measurement(
        self, node_id: str, run_id: int, plugin: str, content: Any
    ) -> None:
        """Plugins' 'separate storage location on the node' (Sec. IV-B5)."""
        _write_json(
            self._node_dir(node_id) / "runs" / str(run_id) / "extra" / f"{plugin}.json",
            content,
        )
        self._invalidate_enumeration()

    def read_run_events(self, node_id: str, run_id: int) -> List[Dict[str, Any]]:
        return self._read_stream(node_id, run_id, "events.jsonl")

    def read_run_packets(self, node_id: str, run_id: int) -> List[Dict[str, Any]]:
        return self._read_stream(node_id, run_id, "packets.jsonl")

    def read_run_traces(self, node_id: str, run_id: int) -> List[Dict[str, Any]]:
        """Span records one node (usually the master) persisted for a run."""
        return self._read_stream(node_id, run_id, "traces.jsonl")

    def _read_stream(self, node_id: str, run_id: int, stream: str) -> List[Dict[str, Any]]:
        """Read one run stream, honouring the store's salvage mode."""
        path = self._node_dir(node_id) / "runs" / str(run_id) / stream
        records, bad = self._scan_stream(path)
        if not bad:
            return records
        if not self.salvage:
            raise StorageError(
                f"corrupt record in {path} (line {bad[0][0]}: {bad[0][1]}); "
                "re-run conditioning with --salvage to quarantine it"
            )
        self._quarantine(path, run_id, node_id, stream, len(records), bad)
        return records

    def _scan_stream(self, path: Path) -> Tuple[List[Dict[str, Any]], List[Tuple[int, str, str]]]:
        """Parse a run stream into ``(records, [(lineno, reason, raw)...])``."""
        if not path.exists():
            return [], []
        records: List[Dict[str, Any]] = []
        bad: List[Tuple[int, str, str]] = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                record, reason = _parse_record_line(line)
                if reason is None:
                    records.append(record)
                else:
                    bad.append((lineno, reason, line))
        return records, bad

    def _quarantine(
        self,
        path: Path,
        run_id: int,
        node_id: str,
        stream: str,
        kept: int,
        bad: List[Tuple[int, str, str]],
    ) -> None:
        """Record one stream's corrupt lines in the quarantine sidecar."""
        rel = path.relative_to(self.root)
        sidecar = self.root / "quarantine" / rel
        key = (int(run_id), node_id, stream)
        if key not in self._salvage:
            # First salvage read of this stream by this instance: (re)write
            # the sidecar so repeated reads don't duplicate its lines.
            sidecar.parent.mkdir(parents=True, exist_ok=True)
            with open(sidecar, "w", encoding="utf-8") as fh:
                for lineno, reason, line in bad:
                    fh.write(json.dumps({"line": lineno, "reason": reason, "raw": line},
                                        sort_keys=True) + "\n")
        reasons = sorted({reason for _, reason, _ in bad})
        self._salvage[key] = {
            "run_id": int(run_id),
            "node": node_id,
            "stream": stream,
            "kept": kept,
            "dropped": len(bad),
            "reason": ",".join(reasons),
        }

    def read_extra_measurements(self, node_id: str, run_id: int) -> Dict[str, Any]:
        directory = self._node_dir(node_id) / "runs" / str(run_id) / "extra"
        out: Dict[str, Any] = {}
        if directory.exists():
            for path in sorted(directory.glob("*.json")):
                out[path.stem] = _read_json(path)
        return out

    # ------------------------------------------------------------------
    # Fault leases (reconciled-leak log; feeds the L3 FaultLeases table)
    # ------------------------------------------------------------------
    @property
    def fault_lease_log_path(self) -> Path:
        return self.root / "master" / "fault_leases.jsonl"

    def append_reconciled_leases(self, records: List[Dict[str, Any]]) -> None:
        """Persist leases a reconciliation sweep force-reverted."""
        if records:
            DurableLog(self.fault_lease_log_path).append(records, fsync=False)

    def read_reconciled_leases(self) -> List[Dict[str, Any]]:
        return DurableLog(self.fault_lease_log_path).records()

    # ------------------------------------------------------------------
    # Harness observability (spans outside any run; metrics snapshot)
    # ------------------------------------------------------------------
    @property
    def experiment_trace_path(self) -> Path:
        return self.root / "master" / "traces.jsonl"

    def append_experiment_traces(self, records: List[Dict[str, Any]]) -> None:
        """Experiment-scope spans (``experiment_init``, collection, ...)."""
        if records:
            DurableLog(self.experiment_trace_path).append(records, fsync=False)

    def read_experiment_traces(self) -> List[Dict[str, Any]]:
        return DurableLog(self.experiment_trace_path).records()

    @property
    def metrics_path(self) -> Path:
        return self.root / "metrics.json"

    def write_metrics(self, snapshot: Dict[str, Any]) -> Path:
        """Persist a metrics-registry snapshot for ``repro metrics``."""
        _write_json(self.metrics_path, snapshot)
        return self.metrics_path

    def read_metrics(self) -> Dict[str, Any]:
        return _read_json(self.metrics_path) if self.metrics_path.exists() else {}

    # ------------------------------------------------------------------
    # Salvage (DESIGN.md §11)
    # ------------------------------------------------------------------
    def salvage_records(self) -> List[Dict[str, Any]]:
        """Per-(run, node, stream) salvage records from this instance's
        reads, ordered for stable L3 insertion."""
        return [self._salvage[key] for key in sorted(self._salvage)]

    def salvage_probe(self, run_id: int) -> Dict[str, int]:
        """Non-mutating corruption estimate for one run.

        Scans every node's run streams without quarantining anything —
        the campaign resume path uses this to decide whether a journaled
        run lost too much data and must be re-executed.
        """
        kept = dropped = 0
        for node_id in self.node_ids():
            for stream in ("events.jsonl", "packets.jsonl"):
                path = self._node_dir(node_id) / "runs" / str(run_id) / stream
                records, bad = self._scan_stream(path)
                kept += len(records)
                dropped += len(bad)
        return {"kept": kept, "dropped": dropped}

    def write_salvage_report(self) -> Optional[Path]:
        """Summarize this instance's salvage reads into
        ``quarantine/salvage_report.json`` (None when nothing was salvaged)."""
        records = self.salvage_records()
        if not records:
            return None
        report_path = self.root / "quarantine" / "salvage_report.json"
        _write_json(
            report_path,
            {
                "records": records,
                "total_kept": sum(r["kept"] for r in records),
                "total_dropped": sum(r["dropped"] for r in records),
            },
        )
        return report_path

    # ------------------------------------------------------------------
    # Run metadata (start times)
    # ------------------------------------------------------------------
    def write_run_info(self, run_id: int, info: Dict[str, Any]) -> None:
        _write_json(self.root / "master" / "runinfo" / f"run_{run_id}.json", info)

    def read_run_info(self, run_id: int) -> Dict[str, Any]:
        path = self.root / "master" / "runinfo" / f"run_{run_id}.json"
        if not path.exists():
            raise StorageError(f"no run info for run {run_id}")
        return _read_json(path)

    # ------------------------------------------------------------------
    # EE files (artefacts; feeds the EEFiles table)
    # ------------------------------------------------------------------
    def write_eefile(self, name: str, content: str) -> None:
        path = self.root / "eefiles" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")

    def eefiles(self) -> Dict[str, str]:
        directory = self.root / "eefiles"
        out: Dict[str, str] = {}
        if directory.exists():
            for path in sorted(directory.rglob("*")):
                if path.is_file():
                    out[str(path.relative_to(directory))] = path.read_text(encoding="utf-8")
        return out

    # ------------------------------------------------------------------
    # Enumeration (drives conditioning)
    # ------------------------------------------------------------------
    def node_ids(self) -> List[str]:
        if self._node_ids_cache is None:
            directory = self.root / "nodes"
            if not directory.exists():
                return []
            self._node_ids_cache = sorted(
                p.name for p in directory.iterdir() if p.is_dir()
            )
        return list(self._node_ids_cache)

    def run_ids(self) -> List[int]:
        if self._run_ids_cache is None:
            ids = set()
            for node_id in self.node_ids():
                runs_dir = self._node_dir(node_id) / "runs"
                if runs_dir.exists():
                    for p in runs_dir.iterdir():
                        if p.is_dir() and p.name.isdigit():
                            ids.add(int(p.name))
            self._run_ids_cache = sorted(ids)
        return list(self._run_ids_cache)

    def iter_run_node_pairs(self) -> Iterator[Tuple[int, str]]:
        # Both listings are computed once for the whole product — the
        # naive nested form re-walked the node tree for every run id,
        # an O(nodes x runs) stat storm on large stores.
        node_ids = self.node_ids()
        for run_id in self.run_ids():
            for node_id in node_ids:
                yield run_id, node_id

    def has_complete_run(self, run_id: int) -> bool:
        """Whether this store holds a fully collected *run_id*.

        A run is complete once its master-side run info and time-sync
        measurements exist — the master writes both during preparation and
        journals completion only after collection.  The campaign resume
        path uses this as a defense against journal/data divergence: a
        journaled run whose staged data vanished is simply re-executed.
        """
        return (
            (self.root / "master" / "runinfo" / f"run_{run_id}.json").exists()
            and (self.root / "master" / "timesync" / f"run_{run_id}.json").exists()
        )

    def purge_run(self, run_id: int) -> None:
        """Delete one run's partial data everywhere (resume of an aborted
        run starts from a clean slate)."""
        import shutil

        for node_id in self.node_ids():
            run_dir = self._node_dir(node_id) / "runs" / str(run_id)
            if run_dir.exists():
                shutil.rmtree(run_dir)
            quarantined = (
                self.root / "quarantine" / "nodes" / node_id / "runs" / str(run_id)
            )
            if quarantined.exists():
                shutil.rmtree(quarantined)
        for path in (
            self.root / "master" / "timesync" / f"run_{run_id}.json",
            self.root / "master" / "runinfo" / f"run_{run_id}.json",
        ):
            if path.exists():
                path.unlink()
        for key in [k for k in self._salvage if k[0] == run_id]:
            del self._salvage[key]
        self._invalidate_enumeration()
