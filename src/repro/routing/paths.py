"""Per-pair path tables.

A :class:`PathSet` is the routing state a deployment would install (via
OpenFlow rules, SPAIN VLANs or MPLS tunnels, Section 5.3): for each
(source switch, destination switch) pair, an ordered list of usable paths.
Both the LP-based throughput harness and the fluid simulator consume it.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

import networkx as nx

from repro.graphs.csr import csr_graph
from repro.routing.ecmp import ecmp_paths
from repro.routing.ksp import Path, all_pairs_k_shortest_paths
from repro.telemetry import count

Pair = Tuple[Hashable, Hashable]

#: Content-hash-keyed LRU of shared path tables (see :func:`shared_path_set`).
_SHARED_PATH_SETS: "OrderedDict[Tuple[str, str, int], PathSet]" = OrderedDict()
_SHARED_PATH_SET_MAX = 16

#: Total stored paths allowed across every shared table before LRU tables
#: are evicted (env ``REPRO_PATHSET_PATH_BUDGET``).  A k=8 KSP table over a
#: 180-switch all-pairs sweep holds ~258k paths; the default admits a couple
#: of those plus change, so week-long sweeps over many topologies recycle
#: table slots instead of accreting every table they ever built.
_SHARED_PATH_SET_PATH_BUDGET = int(
    os.environ.get("REPRO_PATHSET_PATH_BUDGET", 600_000)
)

#: Stored-path count per cached table (maintained by :func:`shared_path_set`).
_shared_path_counts: Dict[Tuple[str, str, int], int] = {}
_shared_pathset_evictions = 0


def _evict_shared_tables(current_key: Tuple[str, str, int]) -> None:
    """Evict LRU tables past the entry cap or the total-path budget.

    The table just used (``current_key``) is never evicted — a single
    oversized table is allowed to exist, it just forces everything else
    out — so callers always get back the table they extended.
    """
    global _shared_pathset_evictions
    del current_key  # always newest (moved to end), so never the LRU victim
    evicted = 0
    while len(_SHARED_PATH_SETS) > 1 and (
        len(_SHARED_PATH_SETS) > _SHARED_PATH_SET_MAX
        or sum(_shared_path_counts.values()) > _SHARED_PATH_SET_PATH_BUDGET
    ):
        key, _ = _SHARED_PATH_SETS.popitem(last=False)
        _shared_path_counts.pop(key, None)
        evicted += 1
    if evicted:
        _shared_pathset_evictions += evicted
        count("pathset.evictions", evicted)


def shared_path_set_stats() -> Dict[str, int]:
    """Occupancy and eviction counters of the shared path-table cache."""
    return {
        "tables": len(_SHARED_PATH_SETS),
        "paths": sum(_shared_path_counts.values()),
        "path_budget": _SHARED_PATH_SET_PATH_BUDGET,
        "evictions": _shared_pathset_evictions,
    }


@dataclass
class PathSet:
    """Ordered candidate paths for each switch pair."""

    paths: Dict[Pair, List[Path]] = field(default_factory=dict)
    kind: str = "custom"

    def __getitem__(self, pair: Pair) -> List[Path]:
        return self.paths[pair]

    def get(self, pair: Pair, default=None):
        return self.paths.get(pair, default)

    def pairs(self) -> Iterable[Pair]:
        return self.paths.keys()

    def __len__(self) -> int:
        return len(self.paths)

    def add(self, pair: Pair, path: Path) -> None:
        self.paths.setdefault(pair, []).append(tuple(path))

    def max_paths_per_pair(self) -> int:
        if not self.paths:
            return 0
        return max(len(options) for options in self.paths.values())

    def average_path_length(self) -> float:
        """Mean hop count over every stored path (edges, not nodes)."""
        lengths = [len(p) - 1 for options in self.paths.values() for p in options]
        if not lengths:
            raise ValueError("path set is empty")
        return sum(lengths) / len(lengths)

    def validate_against(self, graph: nx.Graph) -> None:
        """Check every stored path is a real, loop-free path of ``graph``."""
        for (source, target), options in self.paths.items():
            for path in options:
                if path[0] != source or path[-1] != target:
                    raise ValueError(
                        f"path {path!r} does not join {source!r} and {target!r}"
                    )
                if len(set(path)) != len(path):
                    raise ValueError(f"path {path!r} revisits a node")
                for u, v in zip(path, path[1:]):
                    if not graph.has_edge(u, v):
                        raise ValueError(f"path {path!r} uses missing edge {(u, v)!r}")


def build_path_set(
    graph: nx.Graph,
    pairs: Sequence[Pair],
    scheme: str = "ksp",
    k: int = 8,
    on_unreachable: str = "raise",
) -> PathSet:
    """Build a :class:`PathSet` for the given pairs.

    ``scheme`` is ``"ksp"`` for Yen's k-shortest paths or ``"ecmp"`` for
    w-way equal-cost shortest paths (``k`` doubles as the ECMP width).
    KSP queries go through :func:`~repro.routing.ksp.all_pairs_k_shortest_paths`,
    which validates the graph's CSR view once for the whole batch and
    shares one BFS tree across the targets of each source.

    ``on_unreachable`` selects the degradation semantics for pairs with no
    path (a partitioned graph): ``"raise"`` (historical default) raises
    ``ValueError``; ``"skip"`` leaves the pair out of the table, which the
    flow and simulation engines report as zero throughput (see
    :mod:`repro.failures.degradation`).
    """
    if scheme not in ("ksp", "ecmp"):
        raise ValueError(f"unknown routing scheme {scheme!r}")
    distinct = [(source, target) for source, target in pairs if source != target]
    table: Dict[Pair, List[Path]] = {}
    _extend_table(graph, table, distinct, scheme, k, on_unreachable)
    return PathSet(paths=table, kind=f"{scheme}-{k}")


def _extend_table(
    graph: nx.Graph,
    table: Dict[Pair, List[Path]],
    pending: Sequence[Pair],
    scheme: str,
    k: int,
    on_unreachable: str = "raise",
) -> None:
    """Compute and store paths for ``pending`` pairs.

    Pairs with no path either raise (``on_unreachable="raise"``) or are
    skipped -- never stored -- so a skip-mode table holds routes exactly
    for the reachable pairs.
    """
    if on_unreachable not in ("raise", "skip"):
        raise ValueError(
            f"on_unreachable must be 'raise' or 'skip', got {on_unreachable!r}"
        )
    if scheme == "ksp":
        computed = all_pairs_k_shortest_paths(graph, pending, k)
        for pair in pending:
            options = computed[pair]
            if not options:
                if on_unreachable == "skip":
                    continue
                raise ValueError(f"no path between {pair[0]!r} and {pair[1]!r}")
            table[pair] = options
    else:
        csr = csr_graph(graph) if pending else None
        for source, target in pending:
            options = ecmp_paths(graph, source, target, width=k, csr=csr)
            if not options:
                if on_unreachable == "skip":
                    continue
                raise ValueError(f"no path between {source!r} and {target!r}")
            table[(source, target)] = options


def shared_path_set(
    graph: nx.Graph,
    pairs: Sequence[Pair],
    scheme: str = "ksp",
    k: int = 8,
    on_unreachable: str = "raise",
) -> PathSet:
    """A :class:`PathSet` shared across calls for structurally equal graphs.

    Tables are cached in a small LRU keyed by the graph's CSR
    ``content_hash`` plus ``(scheme, k)`` — the same content-addressing
    discipline as the engine's result cache — and extended lazily: only
    pairs not yet present are routed.  Because paths are a pure function of
    the graph structure, a throughput sweep that evaluates several traffic
    matrices (or re-solves an identical topology) pays for each pair's
    route enumeration once instead of once per matrix.

    The returned table is shared state: callers must treat it as read-only.
    In-place graph mutations change the content hash (via the CSR
    fingerprint revalidation), so a stale table is never returned.

    ``on_unreachable="skip"`` applies the degradation semantics of
    :func:`build_path_set`: unreachable pairs are left out of the table
    (and re-probed on later calls, since absence is how "unreachable" is
    represented).
    """
    if scheme not in ("ksp", "ecmp"):
        raise ValueError(f"unknown routing scheme {scheme!r}")
    key = (csr_graph(graph).content_hash, scheme, k)
    table = _SHARED_PATH_SETS.get(key)
    if table is None:
        table = PathSet(paths={}, kind=f"{scheme}-{k}")
        _SHARED_PATH_SETS[key] = table
        _shared_path_counts[key] = 0
    else:
        _SHARED_PATH_SETS.move_to_end(key)
    pending = [
        (source, target)
        for source, target in pairs
        if source != target and (source, target) not in table.paths
    ]
    if pending:
        try:
            _extend_table(graph, table.paths, pending, scheme, k, on_unreachable)
        finally:
            # Recount even when an unreachable pair raised part-way: the
            # pairs routed before it stay in the table and use the budget.
            _shared_path_counts[key] = sum(
                len(options) for options in table.paths.values()
            )
    _evict_shared_tables(key)
    return table


def clear_shared_path_sets() -> None:
    """Drop every cached shared path table (and reset the stats counters)."""
    global _shared_pathset_evictions
    _SHARED_PATH_SETS.clear()
    _shared_path_counts.clear()
    _shared_pathset_evictions = 0
