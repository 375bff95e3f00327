"""Span tracing around the public functions of each layer.

The traced run times the program from the outside: :class:`LayerTracer`
replaces each target function or method with a wrapper that records a
span ``(name, start, end, parent, run_id)`` in memory, and restores the
originals when the traced round ends.  No file of the program changes.

A layer's self time is the duration of its spans minus the part covered
by the spans nested directly inside them.  Spans nest through a stack,
which is exact because every wrapped call is synchronous; the two
generator functions (``ControlChannel.call`` and
``ExperiMaster.execute_single_run``) are counted, not timed, because
simulation processes interleave across their ``yield`` points.

A target that a later version of the program renames or removes raises
:class:`LookupError` on installation: the traced run fails rather than
report a metric that lost its source as 0.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, owner, attribute).  The owner is ``module`` for a
#: module-level function or ``module:Class`` for a method.  A module-level
#: function is replaced in every loaded ``repro`` module that imported it
#: by name, so ``from x import f`` call sites are traced as well.
SPAN_TARGETS: List[Tuple[str, str, str]] = [
    ("xmlio.parse", "repro.core.xmlio", "description_from_xml"),
    ("xmlio.emit", "repro.core.xmlio", "description_to_xml"),
    ("plan.generate", "repro.core.plan", "generate_plan"),
    ("platform.build", "repro.platforms.simulated:SimulatedPlatform", "__init__"),
    ("master.execute", "repro.core.master:ExperiMaster", "execute"),
    ("kernel.run", "repro.sim.kernel:Simulator", "run"),
    ("rpc.handle", "repro.core.rpc:RpcServer", "handle_request"),
    ("rpc.codec", "xmlrpc.client", "dumps"),
    ("rpc.codec", "xmlrpc.client", "loads"),
    ("bus.register", "repro.core.events:EventBus", "register"),
    ("bus.watch", "repro.core.events:EventBus", "watch"),
    ("bus.cancel", "repro.core.events:EventBus", "cancel"),
    ("medium.transmit", "repro.net.medium:WirelessMedium", "transmit"),
    ("journal.append", "repro.storage.level2:Level2Store", "append_journal"),
    ("l2.append", "repro.storage.level2:RunWriter", "append"),
    ("l2.append", "repro.storage.level2:RunWriter", "close"),
    ("l2.append", "repro.storage.level2:Level2Store", "write_run_data"),
    ("l2.append", "repro.storage.level2:Level2Store", "write_node_experiment_events"),
    ("l2.append", "repro.storage.level2:Level2Store", "write_node_log"),
    ("l2.append", "repro.storage.level2:Level2Store", "write_run_info"),
    ("l2.append", "repro.storage.level2:Level2Store", "write_timesync"),
    ("l2.append", "repro.storage.level2:Level2Store", "append_experiment_traces"),
    ("condition.run", "repro.storage.conditioning", "condition_run"),
    ("condition.scope", "repro.storage.conditioning", "condition_scope"),
    ("l3.write", "repro.storage.level3", "store_level3"),
    ("l3.digest", "repro.campaign.merge", "database_digest"),
    ("campaign.execute", "repro.campaign.engine:CampaignEngine", "execute"),
    ("cjournal.append", "repro.campaign.journal:CampaignJournal", "_append"),
    ("merge.shards", "repro.campaign.merge", "merge_shards"),
    ("repo.open", "repro.repo.warehouse:Warehouse", "__init__"),
    ("repo.close", "repro.repo.warehouse:Warehouse", "close"),
    ("repo.ingest", "repro.repo.warehouse:Warehouse", "ingest_many"),
    ("repo.fingerprint", "repro.repo.fingerprint", "fingerprint_package"),
    ("repo.copy", "repro.repo.shard", "copy_batch_into_shard"),
    ("repo.views", "repro.repo.views", "refresh_experiment_views"),
    ("repo.journal", "repro.repo.journal:IngestJournal", "append_many"),
    ("repo.query.events", "repro.repo.warehouse:Warehouse", "events"),
    ("repo.query.event_counts", "repro.repo.warehouse:Warehouse", "event_counts"),
    (
        "repo.query.responsiveness_surface",
        "repro.repo.warehouse:Warehouse",
        "responsiveness_surface",
    ),
    ("repo.query.stats", "repro.repo.warehouse:Warehouse", "stats"),
    ("repo.query.trend", "repro.repo.warehouse:Warehouse", "trend"),
]


def _resolve_owner(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class LayerTracer:
    """Records spans and counts while installed (``with tracer:``).

    One instance serves one traced round; :meth:`self_times`,
    :meth:`inclusive_times` and :attr:`counts` are what it recorded.
    """

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, run id or None).
        self.spans: List[Tuple[str, float, float, int, Optional[int]]] = []
        self.counts: Counter = Counter()
        #: Wall seconds the tracer was installed; set by the caller.
        self.wall_s = 0.0
        self._stack: List[int] = []
        self._run_id: Optional[int] = None
        self._bus_op: Optional[str] = None
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        try:
            for name, owner, attr in SPAN_TARGETS:
                self._patch(owner, attr, self._span_wrapper(name, attr))
            self._patch("repro.core.events:Watcher", "offer", self._offer_wrapper)
            self._patch(
                "repro.core.rpc:ControlChannel", "call", self._count_wrapper("rpc.calls")
            )
            self._patch(
                "repro.core.rpc:ControlChannel", "cast_to_master", self._count_wrapper("rpc.casts")
            )
            self._patch(
                "repro.core.master:ExperiMaster", "execute_single_run", self._run_wrapper
            )
        except LookupError:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            self._restore.pop()()

    def _patch(self, owner: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        try:
            target = _resolve_owner(owner)
        except (ImportError, AttributeError):
            target = None
        # A method must be defined on the class itself: one inherited from
        # a base would be patched for every subclass of that base.
        original = vars(target).get(attr) if target is not None else None
        if original is None:
            raise LookupError(f"trace target {owner}.{attr} not found")
        if isinstance(target, type):
            setattr(target, attr, make(original))
            self._restore.append(lambda: setattr(target, attr, original))
            return
        wrapper = make(original)
        modules = [target] + [
            m
            for name, m in list(sys.modules.items())
            if m is not None and m is not target and name.startswith("repro")
        ]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._restore.append(
                        lambda module=module, key=key: setattr(module, key, original)
                    )

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _span_wrapper(self, name: str, attr: str) -> Callable[[Callable], Callable]:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        measure_bytes = name == "rpc.codec"
        is_dumps = attr == "dumps"
        bus_op = name[4:] if name.startswith("bus.") else None
        tracer = self

        def make(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                index = len(spans)
                parent = stack[-1] if stack else -1
                spans.append(None)  # reserve the slot so children index after it
                stack.append(index)
                counts[name] += 1
                saved_op = tracer._bus_op
                if bus_op is not None:
                    tracer._bus_op = bus_op
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    tracer._bus_op = saved_op
                    spans[index] = (name, start, end, parent, tracer._run_id)
                if measure_bytes:
                    text = result if is_dumps else args[0]
                    if isinstance(text, (bytes, bytearray)):
                        counts["rpc.codec_bytes"] += len(text)
                    else:
                        counts["rpc.codec_bytes"] += len(text.encode("utf-8"))
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _offer_wrapper(self, fn: Callable) -> Callable:
        counts = self.counts
        tracer = self

        def offer(watcher, event):
            op = tracer._bus_op
            if op == "watch":
                counts["bus.replayed"] += 1
            elif op == "register":
                counts["bus.offers"] += 1
            return fn(watcher, event)

        offer.__wrapped__ = fn
        return offer

    def _count_wrapper(self, key: str) -> Callable[[Callable], Callable]:
        counts = self.counts

        def make(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _run_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        def execute_single_run(master, binding):
            tracer._run_id = binding.run.run_id
            try:
                return (yield from fn(master, binding))
            finally:
                tracer._run_id = None

        execute_single_run.__wrapped__ = fn
        return execute_single_run

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name: duration minus direct children."""
        child_time = defaultdict(float)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _run) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def inclusive_times(self) -> Dict[str, float]:
        """Total span seconds per name, children included."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _run in self.spans:
            totals[name] += end - start
        return dict(totals)

    def records(self) -> List[Dict[str, Any]]:
        """The spans as JSON-ready dicts (parent is an index into the list)."""
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run_id": r}
            for n, s, e, p, r in self.spans
        ]
