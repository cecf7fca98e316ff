"""Per-layer spans recorded by wrapping the public calls of ``repro.*``.

The program itself is not edited.  :func:`install` imports every ``repro``
module and replaces each entry point listed in :data:`ENTRY_POINTS` --
wherever a module holds the original object, since callers bind names with
``from ... import`` -- by a wrapper that records a span.  A span's self
time is its duration minus the time of the wrapped calls nested in it, so
the self times of all layers add up to the traced time without overlap.

Spans are aggregated in memory per process ((calls, self seconds) per
layer metric, plus domain counters) and appended to
``<spans_dir>/spans-<pid>.jsonl``.  Forked sweep workers inherit the
wrappers; they leave through ``os._exit`` without running ``atexit``, so a
worker flushes whenever a point's ``ScenarioPoint.execute`` returns.

:func:`load_trace` folds every process's lines into one :class:`Trace`,
whose :meth:`Trace.metrics` gives the per-layer metrics named in
:data:`PER_LAYER`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from harness import SPEC

#: Layer metric -> entry points ("module:qualname").  A call made directly
#: inside a span of the same metric is part of that span, not a new call.
ENTRY_POINTS: Dict[str, List[str]] = {
    "engine.run": ["repro.engine.runner:SweepRunner.run"],
    "engine.execute": ["repro.engine.spec:ScenarioPoint.execute"],
    "engine.cache_fetch": ["repro.engine.cache:ResultCache.fetch"],
    "engine.cache_store": ["repro.engine.cache:ResultCache.store"],
    "engine.assemble": ["repro.engine.registry:result_from_value"],
    "topologies.build": [
        "repro.topologies.jellyfish:JellyfishTopology.build",
        "repro.topologies.jellyfish:JellyfishTopology.from_equipment",
        "repro.topologies.jellyfish:JellyfishTopology.expand",
        "repro.topologies.fattree:FatTreeTopology.build",
        "repro.topologies.clos:LeafSpineTopology.build",
        "repro.topologies.degree_diameter:DegreeDiameterTopology.build",
        "repro.topologies.swdc:SmallWorldTopology.build",
        "repro.topologies.ensemble:single_rrg_core",
        "repro.topologies.ensemble:generate_cores",
        "repro.topologies.ensemble:build_ensemble",
        "repro.graphs.regular:random_regular_graph",
        "repro.graphs.regular:regular_rows",
        "repro.graphs.regular:sequential_random_regular_rows",
        "repro.graphs.regular:stub_matching_regular_rows",
        "repro.graphs.regular:random_graph_with_degree_budget_rows",
    ],
    "traffic.gen": [
        "repro.traffic.matrices:random_permutation_traffic",
        "repro.traffic.matrices:all_to_all_traffic",
        "repro.traffic.matrices:stride_traffic",
        "repro.traffic.matrices:hotspot_traffic",
    ],
    "routing.pathset": [
        "repro.routing.paths:build_path_set",
        "repro.routing.paths:shared_path_set",
    ],
    "routing.ksp": [
        "repro.routing.ksp:k_shortest_paths",
        "repro.routing.ksp:all_pairs_k_shortest_paths",
        "repro.graphs.csr:k_shortest_path_indices",
    ],
    "routing.ecmp": [
        "repro.routing.ecmp:all_shortest_paths",
        "repro.routing.ecmp:ecmp_paths",
        "repro.routing.ecmp:ecmp_route_flows",
        "repro.graphs.csr:all_shortest_path_indices",
    ],
    "flow.linprog": ["scipy.optimize:linprog"],
    "flow.path_lp": [
        "repro.flow.path_lp:max_concurrent_flow_path_lp",
        "repro.flow.path_lp:shared_path_lp_structure",
        "repro.flow.path_lp:PathLPStructure.assemble",
        "repro.flow.path_lp:PathLPStructure.solve",
        "repro.flow.path_lp:PathLPStructure.solve_decision",
        "repro.flow.mcf:max_concurrent_flow_edge_lp",
        "repro.flow.throughput:concurrent_flow",
        "repro.flow.throughput:normalized_throughput",
        "repro.flow.throughput:degraded_throughput",
    ],
    "flow.decide": [
        "repro.flow.throughput:supports_full_throughput",
        "repro.flow.throughput:max_servers_at_full_throughput",
    ],
    "flow.maxmin": ["repro.flow.maxmin:max_min_fair_allocation"],
    "simulation.fluid": ["repro.simulation.fluid:simulate_fluid"],
    "simulation.aimd": ["repro.simulation.aimd:simulate_aimd"],
    "graphs.csr": [
        "repro.graphs.csr:csr_graph",
        "repro.graphs.csr:adopt_csr_view",
        "repro.graphs.csr:CSRGraph.from_arrays",
    ],
    "graphs.bfs": [
        "repro.graphs.csr:batched_hop_distances",
        "repro.graphs.csr:CSRGraph.hop_distance_matrix",
        "repro.graphs.csr:CSRGraph.iter_hop_distance_blocks",
        "repro.graphs.csr:CSRGraph.distance_row",
        "repro.graphs.csr:CSRGraph.bfs_parent_tree",
        "repro.graphs.properties:all_pairs_hop_distances",
        "repro.graphs.properties:path_length_distribution",
        "repro.graphs.properties:path_length_distribution_csr",
        "repro.graphs.properties:csr_component_labels",
        "repro.graphs.properties:connected_components_csr",
        "repro.graphs.properties:average_path_length_csr",
        "repro.graphs.properties:diameter_csr",
        "repro.graphs.properties:server_path_length_cdf_csr",
        "repro.graphs.properties:average_path_length",
        "repro.graphs.properties:diameter",
        "repro.graphs.properties:path_length_cdf",
    ],
    "graphs.bisection": [
        "repro.graphs.bisection:exact_bisection_bandwidth",
        "repro.graphs.bisection:estimate_bisection_bandwidth",
        "repro.graphs.bisection:normalized_bisection_bandwidth",
        "repro.graphs.bisection:jellyfish_normalized_bisection",
    ],
    "graphs.sampling": [
        "repro.graphs.sampling:sampled_path_length_stats",
        "repro.graphs.sampling:sampled_bisection_stats",
        "repro.graphs.sampling:sampled_throughput_bound",
    ],
}

#: The callable a scenario point runs is whatever ``resolve_target`` returns;
#: its self time is point time that no wrapped layer call covers.
POINT_METRIC = "experiments.point"
RESOLVER = "repro.engine.spec:resolve_target"

#: Per-layer metric name -> unit, in report order.
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Counts that are a pure function of the workload and seed.
EXACT_COUNTS = ("flow.linprog_calls", "flow.linprog_nit", "simulation.aimd_rounds")

_ROUTING_WORK = frozenset(("routing.ksp", "routing.ecmp"))
#: Self times of point work that no wrapped layer call covers.
UNCOVERED = ("experiments.uncovered_s", "engine.execute_s")
#: ``_s`` metrics that are not the self time of a span: the import before
#: tracing starts, and runner time with no point executing.
_NOT_SPANS = ("startup.import_s", "engine.idle_s")


def _span_self_times(metrics: Dict[str, float]) -> Dict[str, float]:
    return {
        name: value
        for name, value in metrics.items()
        if name.endswith("_s") and name not in _NOT_SPANS
    }


def uncovered_share(metrics: Dict[str, float]) -> float:
    """Share of all span self time that is in :data:`UNCOVERED`."""
    spans = _span_self_times(metrics)
    total = sum(spans.values())
    return sum(spans[name] for name in UNCOVERED) / total if total else 0.0


def largest_share(metrics: Dict[str, float]) -> Tuple[str, float]:
    """The layer metric with the most self time, and its share of the total."""
    spans = _span_self_times(metrics)
    total = sum(spans.values())
    name = max(spans, key=spans.get)
    return name, (spans[name] / total if total else 0.0)


def _nnz(matrix) -> int:
    if matrix is None:
        return 0
    if hasattr(matrix, "nnz"):
        return int(matrix.nnz)
    import numpy as np

    return int(np.count_nonzero(matrix))


def _observe_linprog(recorder: "Recorder", args, kwargs, result) -> None:
    a_ub = kwargs.get("A_ub", args[1] if len(args) > 1 else None)
    a_eq = kwargs.get("A_eq", args[3] if len(args) > 3 else None)
    recorder.counters["flow.linprog_nit"] += int(getattr(result, "nit", 0) or 0)
    recorder.counters["flow.linprog_nnz"] += _nnz(a_ub) + _nnz(a_eq)


def _observe_fetch(recorder: "Recorder", args, kwargs, result) -> None:
    if result[0]:
        recorder.counters["engine.cache_hits"] += 1


def _observe_aimd(recorder: "Recorder", args, kwargs, result) -> None:
    recorder.counters["simulation.aimd_rounds"] += int(result.rounds)


OBSERVERS: Dict[str, Callable] = {
    "flow.linprog": _observe_linprog,
    "engine.cache_fetch": _observe_fetch,
    "simulation.aimd": _observe_aimd,
}

#: Metrics whose span intervals are kept, to measure runner idle time.
_INTERVALS = ("engine.run", "engine.execute")
_COUNTERS = (
    "flow.linprog_nit",
    "flow.linprog_nnz",
    "engine.cache_hits",
    "simulation.aimd_rounds",
    "routing.pathset_builds",
)


@dataclass
class _Frame:
    metric: str
    child_s: float = 0.0
    nested: set = field(default_factory=set)


class Recorder:
    """Span aggregation for one process; a forked child starts empty."""

    def __init__(self, spans_dir: Path) -> None:
        self.spans_dir = Path(spans_dir)
        self._start_process()

    def _start_process(self) -> None:
        self.pid = os.getpid()
        self.stack: List[_Frame] = []
        self._clear()

    def _clear(self) -> None:
        self.totals: Dict[str, List[float]] = {}
        self.counters: Dict[str, int] = {name: 0 for name in _COUNTERS}
        self.intervals: Dict[str, List[Tuple[float, float]]] = {m: [] for m in _INTERVALS}

    def call(self, metric: str, fn: Callable, args, kwargs):
        if os.getpid() != self.pid:
            self._start_process()  # a forked worker: the parent's spans are not ours
        stack = self.stack
        if stack and stack[-1].metric == metric:
            return fn(*args, **kwargs)
        frame = _Frame(metric)
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._close(frame, start, end)
        observe = OBSERVERS.get(metric)
        if observe is not None:
            observe(self, args, kwargs, result)
        return result

    def _close(self, frame: _Frame, start: float, end: float) -> None:
        duration = end - start
        totals = self.totals.setdefault(frame.metric, [0, 0.0])
        totals[0] += 1
        totals[1] += duration - frame.child_s
        if frame.metric in self.intervals:
            self.intervals[frame.metric].append((start, end))
        if frame.metric == "routing.pathset" and frame.nested & _ROUTING_WORK:
            self.counters["routing.pathset_builds"] += 1
        if self.stack:
            parent = self.stack[-1]
            parent.child_s += duration
            parent.nested |= frame.nested
            parent.nested.add(frame.metric)
        elif frame.metric == "engine.execute":
            # A pool worker's point is done: its spans must reach the disk
            # before the worker can exit without running atexit.
            self.flush()

    def flush(self, **extra) -> None:
        record = {
            "pid": self.pid,
            "totals": self.totals,
            "counters": self.counters,
            "intervals": self.intervals,
            **extra,
        }
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spans_dir / f"spans-{self.pid}.jsonl", "a") as sink:
            sink.write(json.dumps(record) + "\n")
        self._clear()


# --------------------------------------------------------------------------- #
# Installing and removing the wrappers
# --------------------------------------------------------------------------- #
WRAPPED_MARK = "__perfbench_original__"


def _span_wrapper(recorder: Recorder, metric: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(metric, fn, args, kwargs)

    setattr(wrapper, WRAPPED_MARK, fn)
    return wrapper


def _resolver_wrapper(recorder: Recorder, resolve: Callable) -> Callable:
    @functools.wraps(resolve)
    def wrapper(target):
        return _span_wrapper(recorder, POINT_METRIC, resolve(target))

    setattr(wrapper, WRAPPED_MARK, resolve)
    return wrapper


def _repro_modules() -> List:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def import_all_repro() -> None:
    """Import every ``repro`` module, so every binding of an entry point exists."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        try:
            importlib.import_module(info.name)
        except ImportError:
            continue  # an optional dependency; its entry points report as missing


def _locate(entry: str):
    """``(owner, attribute)`` holding the entry point's original object."""
    module_name, _, qualname = entry.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attribute = qualname.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if attribute not in vars(owner):
        raise LookupError(f"{entry}: no attribute {attribute!r}")
    return owner, attribute


class Installation:
    """The wrappers in place; :meth:`uninstall` puts every original back."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.patches: List[Tuple[object, str, object]] = []
        #: Entry points the program no longer has; their time shows in the
        #: enclosing layer's self time instead.
        self.missing: List[str] = []

    def _patch(self, owner, attribute: str, replacement) -> None:
        self.patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def wrap_function(self, original: Callable, replacement: Callable) -> int:
        """Replace ``original`` in every repro module that binds it."""
        replaced = 0
        for module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)
                    replaced += 1
        return replaced

    def wrap_entry(self, entry: str, make_wrapper: Callable[[Callable], Callable]) -> None:
        """Replace the entry point by ``make_wrapper(original)`` everywhere."""
        try:
            owner, attribute = _locate(entry)
        except (ImportError, AttributeError, LookupError):
            self.missing.append(entry)
            return
        raw = vars(owner)[attribute]
        if not inspect.isclass(owner):
            if not self.wrap_function(raw, make_wrapper(raw)):
                self.missing.append(entry)
        elif isinstance(raw, classmethod):
            self._patch(owner, attribute, classmethod(make_wrapper(raw.__func__)))
        else:
            self._patch(owner, attribute, make_wrapper(raw))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self.patches):
            setattr(owner, attribute, original)
        self.patches.clear()


def install(spans_dir: Path) -> Installation:
    import_all_repro()
    from repro.engine.registry import ENGINE_NATIVE

    recorder = Recorder(spans_dir)
    installation = Installation(recorder)
    try:
        for metric, entries in ENTRY_POINTS.items():
            for entry in entries:
                installation.wrap_entry(entry, functools.partial(_span_wrapper, recorder, metric))
        for module_path in sorted(set(ENGINE_NATIVE.values())):
            installation.wrap_entry(
                f"{module_path}:assemble", functools.partial(_span_wrapper, recorder, "engine.assemble")
            )
        installation.wrap_entry(RESOLVER, functools.partial(_resolver_wrapper, recorder))
    except BaseException:
        installation.uninstall()
        raise
    return installation


def leftover_wrappers() -> List[str]:
    """Names of wrappers still reachable from any repro module or class."""
    found = []

    def check(owner_name: str, namespace: dict) -> None:
        for attribute, value in namespace.items():
            inner = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
            if callable(inner) and WRAPPED_MARK in getattr(inner, "__dict__", {}):
                found.append(f"{owner_name}.{attribute}")

    for module in _repro_modules():
        check(module.__name__, vars(module))
        for value in list(vars(module).values()):
            if inspect.isclass(value) and value.__module__ == module.__name__:
                check(f"{module.__name__}.{value.__qualname__}", vars(value))
    return sorted(set(found))


# --------------------------------------------------------------------------- #
# From span files to per-layer metrics
# --------------------------------------------------------------------------- #
def _union_within(window: Tuple[float, float], intervals) -> float:
    """Length of the part of ``window`` covered by any of ``intervals``."""
    lo, hi = window
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
    covered = 0.0
    cursor = lo
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


@dataclass
class Trace:
    """Every process's spans of one traced invocation, merged."""

    totals: Dict[str, List[float]]
    counters: Dict[str, int]
    runs: List[Tuple[float, float]]
    executes: List[Tuple[float, float]]
    import_s: Optional[float]
    missing: List[str]

    def calls(self, metric: str) -> int:
        return int(self.totals.get(metric, (0, 0.0))[0])

    def self_s(self, metric: str) -> float:
        return float(self.totals.get(metric, (0, 0.0))[1])

    def idle_s(self) -> float:
        return sum(
            (end - start) - _union_within((start, end), self.executes)
            for start, end in self.runs
        )

    def metrics(self) -> Dict[str, float]:
        """Every :data:`PER_LAYER` value except ``trace.overhead_ratio``."""
        out: Dict[str, float] = {}
        # "<metric>_calls" and "<metric>_s" read the span totals; the
        # derived values below overwrite the few names that are not totals.
        for name in PER_LAYER:
            metric, _, kind = name.rpartition("_")
            if kind == "calls":
                out[name] = self.calls(metric)
            elif kind == "s":
                out[name] = self.self_s(metric)
        out["startup.import_s"] = self.import_s or 0.0
        out["engine.idle_s"] = self.idle_s()
        out["experiments.uncovered_s"] = self.self_s(POINT_METRIC)
        fetches = self.calls("engine.cache_fetch")
        out["engine.cache_hit_ratio"] = (
            self.counters["engine.cache_hits"] / fetches if fetches else 0.0
        )
        pathsets = self.calls("routing.pathset")
        out["routing.pathset_reuse_ratio"] = (
            1.0 - self.counters["routing.pathset_builds"] / pathsets if pathsets else 0.0
        )
        for name in ("flow.linprog_nit", "flow.linprog_nnz", "simulation.aimd_rounds"):
            out[name] = self.counters[name]
        return out


def load_trace(spans_dir: Path) -> Trace:
    totals: Dict[str, List[float]] = {}
    counters = {name: 0 for name in _COUNTERS}
    runs: List[Tuple[float, float]] = []
    executes: List[Tuple[float, float]] = []
    import_s = None
    missing: List[str] = []
    for path in sorted(Path(spans_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            for metric, (calls, self_s) in record["totals"].items():
                entry = totals.setdefault(metric, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
            for name, value in record["counters"].items():
                counters[name] += value
            runs.extend(map(tuple, record["intervals"]["engine.run"]))
            executes.extend(map(tuple, record["intervals"]["engine.execute"]))
            if "import_s" in record:
                import_s = record["import_s"]
                missing = record["missing"]
    return Trace(totals, counters, runs, executes, import_s, missing)
