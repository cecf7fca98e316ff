"""Bisection bandwidth computations.

Three tools matching the paper's evaluation methodology:

* :func:`bollobas_bisection_lower_bound` -- the analytic lower bound of
  Bollobás (1988) used for Fig 2(a) and 2(b): in almost every r-regular
  graph on N nodes, every set of N/2 nodes is joined to the rest by at least
  ``N * (r/4 - sqrt(r * ln 2) / 2)`` edges.
* :func:`estimate_bisection_bandwidth` -- a Kernighan–Lin-style heuristic
  that searches for a small balanced cut in a concrete graph (upper bound on
  the true bisection width); used for the per-instance cuts of Fig 2(a)
  (``fig02a-ens``) and the LEGUP comparison (Fig 7) where concrete
  expanded topologies are measured.  Each trial runs an index-space kernel
  over the cached CSR view that replays networkx's
  ``kernighan_lin_bisection`` step for step (same rng draws, same moves),
  with per-side FIFO value buckets in place of its lazy binary heaps.  The
  networkx body it is pinned against lives in
  :mod:`repro.graphs._reference`; ``docs/perf.md`` gives the argument.
* :func:`exact_bisection_bandwidth` -- brute-force over all balanced
  partitions, only feasible for tiny graphs; used by the test suite to
  validate the heuristic.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.graphs.csr import CSRGraph, csr_graph
from repro.telemetry import count, trace
from repro.utils.rng import RngLike, ensure_rng


def bollobas_bisection_lower_bound(num_nodes: int, degree: int) -> float:
    """Bollobás' lower bound on the bisection width of an r-regular graph.

    Returns the minimum number of edges crossing any balanced partition, for
    almost every ``degree``-regular graph on ``num_nodes`` nodes:
    ``N * (r/4 - sqrt(r * ln 2) / 2)``.  The bound can be negative for very
    small degrees, in which case it is clamped to zero.
    """
    if num_nodes < 0 or degree < 0:
        raise ValueError("num_nodes and degree must be non-negative")
    bound = num_nodes * (degree / 4.0 - math.sqrt(degree * math.log(2)) / 2.0)
    return max(0.0, bound)


def cut_size(graph: nx.Graph, partition: Set) -> int:
    """Number of edges with exactly one endpoint inside ``partition``.

    Evaluated on the cached CSR view: a boolean side vector indexed by the
    directed edge arrays counts mismatched endpoints in one vectorized
    pass.  The exhaustive search below batches partitions over the same
    edge arrays directly instead of calling this per partition.
    """
    csr = csr_graph(graph)
    if csr.num_edges == 0:
        return 0
    side = np.zeros(csr.num_nodes, dtype=bool)
    inside = [csr.index_of[node] for node in partition if node in csr.index_of]
    side[inside] = True
    return _crossing_edges(csr, side)


def exact_bisection_bandwidth(graph: nx.Graph) -> int:
    """Exact bisection width by exhaustive search (tiny graphs only).

    The graph must have an even number of nodes.  Complexity is
    C(n, n/2) cut evaluations, so this is reserved for validation tests.
    Partitions are evaluated in vectorized batches over the CSR edge
    arrays: one membership matrix per chunk, one comparison per edge
    endpoint, instead of a per-partition edge loop.
    """
    num_nodes = graph.number_of_nodes()
    if num_nodes % 2 != 0:
        raise ValueError("exact bisection requires an even number of nodes")
    if num_nodes == 0:
        return 0
    if num_nodes > 20:
        raise ValueError("exact bisection is only supported for <= 20 nodes")
    csr = csr_graph(graph)
    if csr.num_edges == 0:
        return 0
    half = num_nodes // 2
    heads = csr.edge_sources()
    tails = csr.indices
    best = None
    combos = itertools.combinations(range(1, num_nodes), half - 1)
    chunk_size = 16384
    while True:
        chunk = list(itertools.islice(combos, chunk_size))
        if not chunk:
            break
        side = np.zeros((len(chunk), num_nodes), dtype=bool)
        side[:, 0] = True  # node index 0 anchors one half
        if half > 1:
            rows = np.repeat(np.arange(len(chunk)), half - 1)
            side[rows, np.asarray(chunk, dtype=np.intp).ravel()] = True
        crossings = (side[:, heads] != side[:, tails]).sum(axis=1)
        chunk_best = int(crossings.min()) // 2
        if best is None or chunk_best < best:
            best = chunk_best
    return best if best is not None else 0


#: Outer Kernighan–Lin passes per trial (networkx's ``max_iter`` default).
KL_MAX_ITER = 10


def _pop_cheapest(row, slot: int, state: List[int], value: List[int], bound: int):
    """Pop the cheapest queued node of one side from its value buckets.

    ``row[slot]`` is the FIFO of entries pushed with value ``slot - bound``;
    buckets below ``slot`` are empty.  Scanning up from the lowest bucket
    and taking the earliest entry whose node is still queued *and* still
    has that value reproduces the lazy ``(value, insertion count)`` heap,
    which accepts such an entry even when a newer one with the same value
    exists.  Stale entries are dropped on the way, as the heap drops them.
    """
    while True:
        queue = row[slot]
        while queue:
            node = queue.popleft()
            if state[node] and value[node] == slot - bound:
                return node, slot
        slot += 1


def _kl_sweep(
    adj: List[List[int]], order: List[int], side: List[bool], value: List[int], bound: int
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """One Kernighan–Lin sweep over index space.

    ``value[u]`` is the cost of moving ``u`` off its side: internal minus
    external neighbors, counted as if every popped node had already moved.
    Popping a neighbor changes it by 2, and it stays within ``±bound`` (the
    largest degree).  Alternately pops the cheapest side-0 and side-1 node
    and updates its still-queued neighbors in adjacency order, until one
    side runs out.  Returns the running total cost after each pair and the
    ``(side-0 node, side-1 node)`` pairs.
    """
    width = 2 * bound + 1
    # Indexed by queue state: 1 = queued on side 0, 2 = queued on side 1,
    # 0 = popped.
    state = [2 if s else 1 for s in side]
    rows = (None, [deque() for _ in range(width)], [deque() for _ in range(width)])
    steps = (None, (0, -2, 2), (0, 2, -2))
    lowest = [0, width, width]
    queued = [0, 0, 0]
    for u in order:
        st = state[u]
        slot = value[u] + bound
        rows[st][slot].append(u)
        if slot < lowest[st]:
            lowest[st] = slot
        queued[st] += 1

    totals: List[int] = []
    pairs: List[Tuple[int, int]] = []
    totcost = 0
    popped = [0, 0, 0]
    while queued[1] and queued[2]:
        for st in (1, 2):
            node, slot = _pop_cheapest(rows[st], lowest[st], state, value, bound)
            lowest[st] = slot
            state[node] = 0
            queued[st] -= 1
            totcost += slot - bound
            popped[st] = node
            step = steps[st]
            for nbr in adj[node]:
                st_nbr = state[nbr]
                if st_nbr:
                    cost = value[nbr] + step[st_nbr]
                    value[nbr] = cost
                    slot = cost + bound
                    rows[st_nbr][slot].append(nbr)
                    if slot < lowest[st_nbr]:
                        lowest[st_nbr] = slot
        totals.append(totcost)
        pairs.append((popped[1], popped[2]))
    return totals, pairs


def _kernighan_lin_sides(graph: nx.Graph, rng) -> Tuple[CSRGraph, np.ndarray]:
    """One randomized Kernighan–Lin trial over the CSR view.

    Returns the view and the final side of every node index (``True`` is
    side 1, the shuffled first half).  Step for step this is networkx's
    ``kernighan_lin_bisection`` (see ``_reference.py``) on unit weights:
    the same rng draws, initial queue order (graph node order), neighbor
    update order (CSR rows keep adjacency order) and move selection.
    """
    csr = csr_graph(graph)
    order = [csr.index_of[node] for node in graph.nodes]
    shuffled = list(order)
    rng.shuffle(shuffled)  # same draws as shuffling list(graph.nodes)
    rng.randrange(2**32)  # the seed draw networkx ignored once given a partition
    side = np.zeros(csr.num_nodes, dtype=bool)
    side[shuffled[: csr.num_nodes // 2]] = True

    adj = csr.adj_lists()
    degrees = np.diff(csr.indptr)
    bound = int(degrees.max(initial=0))
    isolated = degrees == 0
    sweeps = moves = 0
    for _ in range(KL_MAX_ITER):
        signs = np.where(side, 1, -1)
        cost = np.add.reduceat(np.append(signs[csr.indices], 0), csr.indptr[:-1])
        cost[isolated] = 0  # reduceat yields the next entry for an empty row
        value = np.where(side, cost, -cost).tolist()
        totals, pairs = _kl_sweep(adj, order, side.tolist(), value, bound)
        sweeps += 1
        min_cost = min(totals)
        if min_cost >= 0:
            break
        min_i = totals.index(min_cost) + 1
        swapped = np.array(pairs[:min_i])
        side[swapped[:, 0]] = True
        side[swapped[:, 1]] = False
        moves += 2 * min_i
    count("kl.sweeps", sweeps)
    count("kl.moves", moves)
    return csr, side


def _crossing_edges(csr: CSRGraph, side: np.ndarray) -> int:
    """Edges whose endpoints lie on different sides of ``side``."""
    crossings = np.count_nonzero(side[csr.edge_sources()] != side[csr.indices])
    return int(crossings) // 2


def _kernighan_lin_once(graph: nx.Graph, rng) -> Tuple[Set, int]:
    """One randomized Kernighan–Lin trial: side 0 and its cut size."""
    with trace("bisection.kl", nodes=graph.number_of_nodes()):
        csr, side = _kernighan_lin_sides(graph, rng)
        best_side = {csr.nodes[i] for i in np.flatnonzero(~side).tolist()}
        return best_side, _crossing_edges(csr, side)


def estimate_bisection_bandwidth(
    graph: nx.Graph,
    trials: int = 5,
    rng: RngLike = None,
    weight_per_edge: float = 1.0,
) -> float:
    """Heuristic (upper-bound) estimate of the bisection bandwidth.

    Runs ``trials`` randomized Kernighan–Lin bisections and returns the
    smallest cut found, scaled by ``weight_per_edge`` (link capacity).
    The graph must be simple and undirected with unit edge weights: a
    ``weight`` edge attribute raises ``ValueError`` instead of being
    ignored.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if graph.is_directed() or graph.is_multigraph():
        raise ValueError("bisection estimate needs a simple undirected graph")
    if any("weight" in data for _, _, data in graph.edges(data=True)):
        raise ValueError("bisection estimate counts unit edges; got a 'weight' attribute")
    if graph.number_of_nodes() < 2:
        return 0.0
    rand = ensure_rng(rng)
    best: Optional[int] = None
    for _ in range(trials):
        _, size = _kernighan_lin_once(graph, rand)
        if best is None or size < best:
            best = size
    return float(best) * weight_per_edge if best is not None else 0.0


def normalized_bisection_bandwidth(
    bisection_edges: float, num_servers: int, server_line_rate: float = 1.0
) -> float:
    """Normalize a bisection width by the server bandwidth in one partition.

    The paper divides the bisection bandwidth by the total line-rate
    bandwidth of the servers in one partition (values > 1 indicate
    overprovisioning).
    """
    if num_servers <= 0:
        raise ValueError("num_servers must be positive")
    one_side = num_servers / 2.0
    return bisection_edges / (one_side * server_line_rate)


def jellyfish_normalized_bisection(
    num_switches: int, ports_per_switch: int, network_degree: int
) -> float:
    """Normalized bisection bandwidth of RRG(N, k, r) via the Bollobás bound.

    Servers per switch is ``k - r``; the bound is normalized by the servers
    in one partition, i.e. ``N * (k - r) / 2``.
    """
    servers = num_switches * (ports_per_switch - network_degree)
    if servers <= 0:
        raise ValueError("topology has no servers (k - r must be positive)")
    bound = bollobas_bisection_lower_bound(num_switches, network_degree)
    return normalized_bisection_bandwidth(bound, servers)
