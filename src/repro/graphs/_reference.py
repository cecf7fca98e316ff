"""Retained pre-vectorization graph kernels (parity references).

These are the original ``networkx``-native implementations of the paper's
random-graph procedures, kept verbatim so the array-native rewrites in
:mod:`repro.graphs.regular` can be pinned against them: the hypothesis suite
in ``tests/test_topology_core.py`` asserts that, for the same seed, the fast
constructors consume the rng stream identically and produce the same edge
set *and* the same adjacency insertion order (which downstream CSR kernels
use for deterministic tie-breaking).

The Kernighan–Lin bisection that :mod:`repro.graphs.bisection` used to
delegate to ``networkx`` (3.6.1) lives here too, as the pin for the
index-space kernel: ``tests/test_graphs_bisection.py`` asserts both return
the same partition and leave the rng in the same state.

Do not modify the algorithmic bodies here: they define the rng-stream
contract the production constructors must honor.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import networkx as nx
import numpy as np

from repro.graphs.bisection import cut_size
from repro.graphs.regular import GraphConstructionError, _validate_regular_params
from repro.utils.rng import RngLike, ensure_rng


def complete_by_splicing_reference(
    graph: nx.Graph,
    free: Dict,
    rand,
    max_stall_rounds: int = 1000,
    error="could not complete regular graph construction",
) -> None:
    """The paper's construction loop on a (possibly partial) ``nx.Graph``.

    Joins random pairs of non-adjacent nodes with free ports; when stuck,
    splices a node with >= 2 free ports into a random existing link, and
    finishes the all-single-port end-game by rewiring one edge.  This is the
    historical loop shared by the sequential and degree-budget constructors,
    extracted so the stub-matching reference can reuse it for its repair
    phase.  Mutates ``graph`` and ``free`` in place.
    """
    open_nodes = [node for node in graph.nodes if free[node] > 0]

    def prune_open_nodes() -> None:
        open_nodes[:] = [node for node in open_nodes if free[node] > 0]

    def try_add_random_edge() -> bool:
        prune_open_nodes()
        if len(open_nodes) < 2:
            return False
        attempts = 4 * len(open_nodes)
        for _ in range(attempts):
            u, v = rand.sample(open_nodes, 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
                free[u] -= 1
                free[v] -= 1
                return True
        for i, u in enumerate(open_nodes):
            for v in open_nodes[i + 1:]:
                if not graph.has_edge(u, v):
                    graph.add_edge(u, v)
                    free[u] -= 1
                    free[v] -= 1
                    return True
        return False

    stall_rounds = 0
    while True:
        if try_add_random_edge():
            continue
        prune_open_nodes()
        stuck = [node for node in open_nodes if free[node] >= 2]
        if not stuck:
            if not _repair_single_port_pair_reference(graph, free, open_nodes, rand):
                break
            continue
        node = rand.choice(stuck)
        edge_list = list(graph.edges)
        rand.shuffle(edge_list)
        spliced = False
        for x, y in edge_list:
            if node in (x, y) or graph.has_edge(node, x) or graph.has_edge(node, y):
                continue
            graph.remove_edge(x, y)
            graph.add_edge(node, x)
            graph.add_edge(node, y)
            free[node] -= 2
            spliced = True
            break
        if not spliced:
            stall_rounds += 1
            if stall_rounds > max_stall_rounds:
                raise GraphConstructionError(error() if callable(error) else error)


def _repair_single_port_pair_reference(graph: nx.Graph, free, open_nodes, rand) -> bool:
    """End-game repair: two adjacent single-free-port nodes rewire one edge."""
    singles = [node for node in open_nodes if free[node] == 1]
    if len(singles) < 2:
        return False
    rand.shuffle(singles)
    for i, u in enumerate(singles):
        for v in singles[i + 1:]:
            edge_list = list(graph.edges)
            rand.shuffle(edge_list)
            for x, y in edge_list:
                if u in (x, y) or v in (x, y):
                    continue
                for first, second in ((x, y), (y, x)):
                    if not graph.has_edge(u, first) and not graph.has_edge(v, second):
                        graph.remove_edge(x, y)
                        graph.add_edge(u, first)
                        graph.add_edge(v, second)
                        free[u] -= 1
                        free[v] -= 1
                        return True
    return False


def sequential_random_regular_graph_reference(
    num_nodes: int,
    degree: int,
    rng: RngLike = None,
    max_stall_rounds: int = 1000,
) -> nx.Graph:
    """Original per-edge Python implementation of the paper's construction."""
    _validate_regular_params(num_nodes, degree)
    rand = ensure_rng(rng)

    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    if num_nodes == 0 or degree == 0:
        return graph

    free = {node: degree for node in graph.nodes}
    complete_by_splicing_reference(
        graph,
        free,
        rand,
        max_stall_rounds,
        error=(
            "could not complete regular graph construction "
            f"(num_nodes={num_nodes}, degree={degree})"
        ),
    )
    return graph


def random_graph_with_degree_budget_reference(
    budgets: Dict,
    rng: RngLike = None,
    max_stall_rounds: int = 1000,
) -> nx.Graph:
    """Original heterogeneous-degree construction (per-edge Python loop)."""
    rand = ensure_rng(rng)
    graph = nx.Graph()
    graph.add_nodes_from(budgets)
    for node, budget in budgets.items():
        if budget < 0:
            raise ValueError(f"negative degree budget for node {node!r}")
        if budget >= len(budgets) and budget > 0:
            raise ValueError(
                f"degree budget for node {node!r} ({budget}) is not realizable "
                f"with {len(budgets)} nodes"
            )

    free = dict(budgets)
    complete_by_splicing_reference(
        graph,
        free,
        rand,
        max_stall_rounds,
        error=lambda: (
            "could not satisfy the degree budgets "
            f"(remaining: { {n: f for n, f in free.items() if f > 0} })"
        ),
    )
    return graph


def stub_matching_regular_graph_reference(
    num_nodes: int,
    degree: int,
    rng: RngLike = None,
    max_stall_rounds: int = 1000,
) -> nx.Graph:
    """Scalar stub-matching construction (the vectorized kernel's reference).

    Draws one 64-bit seed from ``rng`` for a numpy ``Generator``, permutes
    the stub multiset once, then walks consecutive stub pairs in order,
    skipping self-loops and pairs that duplicate an earlier edge.  Leftover
    free ports are completed with the paper's splice-repair loop (driven by
    the *Python* rng, exactly like the sequential construction).
    """
    _validate_regular_params(num_nodes, degree)
    rand = ensure_rng(rng)
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    if num_nodes == 0 or degree == 0:
        return graph

    np_rng = np.random.default_rng(rand.getrandbits(64))
    stubs = np.repeat(np.arange(num_nodes, dtype=np.int64), degree)
    paired = stubs[np_rng.permutation(stubs.shape[0])].tolist()
    for i in range(0, len(paired) - 1, 2):
        u = int(paired[i])
        v = int(paired[i + 1])
        if u == v or graph.has_edge(u, v):
            continue
        graph.add_edge(u, v)

    free = {node: degree - graph.degree(node) for node in graph.nodes}
    if any(count > 0 for count in free.values()):
        complete_by_splicing_reference(
            graph,
            free,
            rand,
            max_stall_rounds,
            error=(
                "could not complete stub-matching construction "
                f"(num_nodes={num_nodes}, degree={degree})"
            ),
        )
    return graph


def _kernighan_lin_sweep_reference(edge_info, side):
    """One networkx 3.6.1 ``_kernighan_lin_sweep``, verbatim.

    Moves single nodes, alternating between sides; two lazy binary heaps
    ordered by ``(value, insertion count)`` pick the cheapest next move.
    """
    heap0, heap1 = cost_heaps = nx.utils.BinaryHeap(), nx.utils.BinaryHeap()
    # we use heap methods insert, pop, and get
    for u, nbrs in edge_info.items():
        cost_u = sum(wt if side[v] else -wt for v, wt in nbrs.items())
        if side[u]:
            heap1.insert(u, cost_u)
        else:
            heap0.insert(u, -cost_u)

    def _update_heap_values(node):
        side_node = side[node]
        for nbr, wt in edge_info[node].items():
            side_nbr = side[nbr]
            if side_nbr == side_node:
                wt = -wt
            heap_nbr = cost_heaps[side_nbr]
            if nbr in heap_nbr:
                cost_nbr = heap_nbr.get(nbr) + 2 * wt
                # allow_increase lets us update a value already on the heap
                heap_nbr.insert(nbr, cost_nbr, allow_increase=True)

    i = 0
    totcost = 0
    while heap0 and heap1:
        u, cost_u = heap0.pop()
        _update_heap_values(u)
        v, cost_v = heap1.pop()
        _update_heap_values(v)
        totcost += cost_u + cost_v
        i += 1
        yield totcost, i, (u, v)


def kernighan_lin_bisection_reference(G, partition, max_iter=10, weight="weight"):
    """networkx 3.6.1 ``kernighan_lin_bisection``, verbatim.

    Only the decorators (undirected check, seed coercion, dispatch) and the
    random-partition branch are gone: every caller passes ``partition``.
    Returns ``(part1, part2)``: the nodes that end on side 0 (``B``) and
    side 1 (``A``).
    """
    nodes = list(G)

    try:
        A, B = partition
    except (TypeError, ValueError) as err:
        raise nx.NetworkXError("partition must be two sets") from err
    if not nx.community.is_partition(G, [A, B]):
        raise nx.NetworkXError("partition invalid")

    side = {node: (node in A) for node in nodes}

    if callable(weight):
        sum_weight = weight
    elif G.is_multigraph():
        sum_weight = lambda u, v, d: sum(dd.get(weight, 1) for dd in d.values())  # noqa: E731
    else:
        sum_weight = lambda u, v, d: d.get(weight, 1)  # noqa: E731

    edge_info = {
        u: {v: wt for v, d in nbrs.items() if (wt := sum_weight(u, v, d)) is not None}
        for u, nbrs in G._adj.items()
    }

    for i in range(max_iter):
        costs = list(_kernighan_lin_sweep_reference(edge_info, side))
        # find out how many edges to update: min_i
        min_cost, min_i, _ = min(costs)
        if min_cost >= 0:
            break

        for _, _, (u, v) in costs[:min_i]:
            side[u] = 1
            side[v] = 0

    part1 = {u for u, s in side.items() if s == 0}
    part2 = {u for u, s in side.items() if s == 1}
    return part1, part2


def kernighan_lin_partition_reference(graph: nx.Graph, rng) -> Tuple[Set, Set]:
    """One randomized KL trial as :mod:`repro.graphs.bisection` ran it.

    Shuffles the node list, puts the first half on side 1, draws the seed
    networkx ignores once a partition is given, and refines.  Returns the
    ``(side 0, side 1)`` node sets.
    """
    nodes = list(graph.nodes)
    rng.shuffle(nodes)
    half = len(nodes) // 2
    side_a = set(nodes[:half])
    rng.randrange(2**32)
    return kernighan_lin_bisection_reference(graph, partition=(side_a, set(nodes[half:])))


def kernighan_lin_once_reference(graph: nx.Graph, rng) -> Tuple[Set, int]:
    """The historical ``_kernighan_lin_once``: side 0 and its cut size."""
    best_side, _ = kernighan_lin_partition_reference(graph, rng)
    return best_side, cut_size(graph, best_side)
