"""Tests for bisection bandwidth tools (repro.graphs.bisection).

The Kernighan–Lin kernel is pinned step for step against the networkx
body retained in :mod:`repro.graphs._reference`: same final partition on
both sides, same cut, and the rng left in the same state.
"""

import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import bisection
from repro.graphs._reference import (
    _kernighan_lin_sweep_reference,
    kernighan_lin_bisection_reference,
    kernighan_lin_once_reference,
    kernighan_lin_partition_reference,
)
from repro.graphs.bisection import (
    bollobas_bisection_lower_bound,
    cut_size,
    estimate_bisection_bandwidth,
    exact_bisection_bandwidth,
    jellyfish_normalized_bisection,
    normalized_bisection_bandwidth,
)
from repro.graphs.csr import csr_graph
from repro.telemetry import disable, enable

PARITY_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestBollobasBound:
    def test_formula(self):
        value = bollobas_bisection_lower_bound(100, 16)
        expected = 100 * (16 / 4 - math.sqrt(16 * math.log(2)) / 2)
        assert value == pytest.approx(expected)

    def test_clamped_at_zero_for_tiny_degree(self):
        assert bollobas_bisection_lower_bound(100, 1) == 0.0

    def test_approaches_quarter_of_links_for_large_degree(self):
        num_nodes, degree = 1000, 10_000
        bound = bollobas_bisection_lower_bound(num_nodes, degree)
        total_links = num_nodes * degree / 2
        assert bound / total_links == pytest.approx(0.5, rel=0.1)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            bollobas_bisection_lower_bound(-1, 3)


class TestCutAndExact:
    def test_cut_size_path(self):
        graph = nx.path_graph(4)
        assert cut_size(graph, {0, 1}) == 1
        assert cut_size(graph, {0, 2}) == 3

    def test_exact_on_complete_graph(self):
        graph = nx.complete_graph(6)
        # Every balanced cut of K6 crosses 3*3 = 9 edges.
        assert exact_bisection_bandwidth(graph) == 9

    def test_exact_on_cycle(self):
        assert exact_bisection_bandwidth(nx.cycle_graph(8)) == 2

    def test_exact_requires_even(self):
        with pytest.raises(ValueError):
            exact_bisection_bandwidth(nx.path_graph(5))

    def test_exact_rejects_large_graphs(self):
        with pytest.raises(ValueError):
            exact_bisection_bandwidth(nx.cycle_graph(30))


class TestHeuristic:
    def test_heuristic_upper_bounds_exact(self):
        graph = nx.random_regular_graph(3, 14, seed=3)
        exact = exact_bisection_bandwidth(graph)
        estimate = estimate_bisection_bandwidth(graph, trials=8, rng=0)
        assert estimate >= exact
        # Kernighan-Lin should get close on such a small instance.
        assert estimate <= exact * 2

    def test_trivial_graph(self):
        assert estimate_bisection_bandwidth(nx.Graph(), trials=1) == 0.0

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            estimate_bisection_bandwidth(nx.cycle_graph(4), trials=0)


class TestNormalization:
    def test_normalized_bisection(self):
        assert normalized_bisection_bandwidth(50, 100) == pytest.approx(1.0)

    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError):
            normalized_bisection_bandwidth(50, 0)

    def test_jellyfish_normalized_monotone_in_degree(self):
        low = jellyfish_normalized_bisection(100, 24, 10)
        high = jellyfish_normalized_bisection(100, 24, 20)
        assert high > low

    def test_jellyfish_requires_servers(self):
        with pytest.raises(ValueError):
            jellyfish_normalized_bisection(100, 24, 24)


def kernel_partition(graph, rng):
    """The kernel's final ``(side 0, side 1)`` node sets for one trial."""
    csr, side = bisection._kernighan_lin_sides(graph, rng)
    side0 = {csr.nodes[i] for i in range(csr.num_nodes) if not side[i]}
    side1 = {csr.nodes[i] for i in range(csr.num_nodes) if side[i]}
    return side0, side1


def assert_kl_parity(graph, seed, trials=3):
    """Kernel and reference agree trial after trial on one rng stream each."""
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(trials):
        assert kernel_partition(graph, fast) == kernighan_lin_partition_reference(graph, slow)
        assert fast.getstate() == slow.getstate()
    fast, slow = random.Random(seed), random.Random(seed)
    assert bisection._kernighan_lin_once(graph, fast) == kernighan_lin_once_reference(
        graph, slow
    )


@st.composite
def regular_graphs(draw):
    degree = draw(st.integers(min_value=3, max_value=18))
    num_nodes = draw(st.integers(min_value=degree + 1, max_value=60))
    if (num_nodes * degree) % 2:
        num_nodes += 1
    return nx.random_regular_graph(degree, num_nodes, seed=draw(st.integers(0, 2**16)))


@st.composite
def sparse_graphs_with_isolated_nodes(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=40))
    graph = nx.gnp_random_graph(
        num_nodes, draw(st.floats(0.0, 0.2)), seed=draw(st.integers(0, 2**16))
    )
    graph.add_nodes_from(range(num_nodes, num_nodes + draw(st.integers(1, 4))))
    return graph


@st.composite
def disconnected_graphs(draw):
    parts = [
        nx.random_regular_graph(3, draw(st.sampled_from([4, 6, 8, 10])), seed=draw(st.integers(0, 999))),
        nx.cycle_graph(draw(st.integers(3, 9))),
        nx.path_graph(draw(st.integers(1, 5))),
    ]
    return nx.disjoint_union_all(parts)


@st.composite
def tuple_labelled_graphs(draw):
    """Tuple labels, with nodes and edges inserted out of sorted order."""
    base = nx.gnp_random_graph(
        draw(st.integers(2, 40)), draw(st.floats(0.05, 0.4)), seed=draw(st.integers(0, 2**16))
    )
    shuffle = random.Random(draw(st.integers(0, 2**16)))
    labels = [(shuffle.randrange(4), f"s{node}") for node in base.nodes]
    nodes = list(base.nodes)
    edges = list(base.edges)
    shuffle.shuffle(nodes)
    shuffle.shuffle(edges)
    inserted = [labels[node] for node in nodes]
    if inserted == sorted(inserted):
        inserted.reverse()
    graph = nx.Graph()
    graph.add_nodes_from(inserted)
    graph.add_edges_from((labels[u], labels[v]) for u, v in edges)
    return graph


class TestKernighanLinParity:
    """The index-space kernel replays networkx's KL run exactly."""

    @PARITY_SETTINGS
    @given(regular_graphs(), st.integers(0, 2**32))
    def test_random_regular_graphs(self, graph, seed):
        assert_kl_parity(graph, seed)

    @PARITY_SETTINGS
    @given(sparse_graphs_with_isolated_nodes(), st.integers(0, 2**32))
    def test_gnp_with_isolated_nodes(self, graph, seed):
        assert_kl_parity(graph, seed)

    @PARITY_SETTINGS
    @given(disconnected_graphs(), st.integers(0, 2**32))
    def test_disconnected_graphs(self, graph, seed):
        assert_kl_parity(graph, seed)

    @PARITY_SETTINGS
    @given(tuple_labelled_graphs(), st.integers(0, 2**32))
    def test_tuple_labels_out_of_sorted_order(self, graph, seed):
        assert list(graph.nodes) != sorted(graph.nodes)
        assert_kl_parity(graph, seed)

    def test_unorderable_labels_keep_insertion_order(self):
        graph = nx.relabel_nodes(
            nx.random_regular_graph(3, 12, seed=6), {i: (str(i) if i % 2 else i) for i in range(12)}
        )
        for seed in range(10):
            assert_kl_parity(graph, seed)

    @pytest.mark.parametrize("num_nodes", [7, 15, 31])
    def test_odd_node_counts(self, num_nodes):
        graph = nx.gnp_random_graph(num_nodes, 0.3, seed=num_nodes)
        for seed in range(10):
            assert_kl_parity(graph, seed)

    @pytest.mark.parametrize("num_nodes", [2, 3])
    def test_every_graph_on_two_and_three_nodes(self, num_nodes):
        pairs = list(itertools.combinations(range(num_nodes), 2))
        for size in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, size):
                graph = nx.Graph()
                graph.add_nodes_from(range(num_nodes))
                graph.add_edges_from(edges)
                for seed in range(6):
                    assert_kl_parity(graph, seed)

    def test_estimate_matches_reference_trials(self):
        graph = nx.random_regular_graph(6, 40, seed=5)
        reference = random.Random(11)
        best = min(kernighan_lin_once_reference(graph, reference)[1] for _ in range(5))
        assert estimate_bisection_bandwidth(graph, trials=5, rng=11) == float(best)

    def test_reference_is_networkx_kernighan_lin(self):
        graph = nx.random_regular_graph(5, 30, seed=2)
        nodes = list(graph.nodes)
        random.Random(4).shuffle(nodes)
        partition = (set(nodes[:15]), set(nodes[15:]))
        assert kernighan_lin_bisection_reference(
            graph, partition
        ) == nx.algorithms.community.kernighan_lin_bisection(graph, partition=partition)


class _BoundedValues(list):
    """A value list that fails the moment a bucket index would leave range."""

    def __init__(self, values, bound):
        super().__init__(values)
        self.bound = bound
        self.extremes = set()

    def __setitem__(self, index, value):
        assert -self.bound <= value <= self.bound
        if abs(value) == self.bound:
            self.extremes.add(value)
        super().__setitem__(index, value)


def sweep_inputs(graph, side_one):
    """Index-space arguments of one sweep, with the given side-1 nodes."""
    csr = csr_graph(graph)
    side = [node in side_one for node in csr.nodes]
    value = []
    for i, node in enumerate(csr.nodes):
        cost = sum(1 if side[j] else -1 for j in csr.adj_lists()[i])
        value.append(cost if side[i] else -cost)
    order = [csr.index_of[node] for node in graph.nodes]
    bound = max((len(row) for row in csr.adj_lists()), default=0)
    return csr, order, side, value, bound


class TestBucketBound:
    """Sweep values stay within ±max degree and reach both ends."""

    def test_values_at_both_ends_of_the_bucket_array(self):
        # Star a (side 0) has every neighbor on side 1: value -d, slot 0.
        # Star b and its leaves sit on side 0: b has value +d, slot 2d.
        degree = 6
        graph = nx.disjoint_union(nx.star_graph(degree), nx.star_graph(degree))
        side_one = set(range(1, degree + 1))
        csr, order, side, value, bound = sweep_inputs(graph, side_one)
        assert bound == degree
        assert min(value) == -bound and max(value) == bound
        totals, pairs = bisection._kl_sweep(csr.adj_lists(), order, side, list(value), bound)
        edge_info = {u: {v: 1 for v in graph.adj[u]} for u in graph.nodes}
        reference = list(
            _kernighan_lin_sweep_reference(edge_info, {u: u in side_one for u in graph.nodes})
        )
        assert totals == [total for total, _, _ in reference]
        assert [(csr.nodes[u], csr.nodes[v]) for u, v in pairs] == [
            pair for _, _, pair in reference
        ]
        assert csr.nodes[pairs[0][0]] == 0  # the slot-0 centre goes first

    def test_updates_reach_the_bound_and_never_pass_it(self):
        # d + 1 hubs on side 0, each with d leaves on side 1: every hub
        # starts at -d.  Once h0 is popped its leaves cost +1, so side 1
        # pops h1's leaves (-1) while side 0 pops the cheaper hubs h2..hd.
        # Each leaf of h1 lifts it by 2, so h1 ends at +d, the top bucket.
        degree = 4
        graph = nx.Graph()
        for k in range(degree + 1):
            graph.add_edges_from((f"h{k}", f"h{k}-{j}") for j in range(degree))
        side_one = {node for node in graph.nodes if "-" in node}
        csr, order, side, value, bound = sweep_inputs(graph, side_one)
        values = _BoundedValues(value, bound)
        _, pairs = bisection._kl_sweep(csr.adj_lists(), order, side, values, bound)
        assert values.extremes == {bound}
        assert csr.nodes[pairs[-1][0]] == "h1"
        assert values[csr.index_of["h1"]] == bound

    @PARITY_SETTINGS
    @given(
        st.one_of(regular_graphs(), sparse_graphs_with_isolated_nodes(), disconnected_graphs()),
        st.integers(0, 2**32),
    )
    def test_values_stay_within_max_degree(self, graph, seed):
        nodes = list(graph.nodes)
        random.Random(seed).shuffle(nodes)
        csr, order, side, value, bound = sweep_inputs(graph, set(nodes[: len(nodes) // 2]))
        bisection._kl_sweep(csr.adj_lists(), order, side, _BoundedValues(value, bound), bound)


class TestKernighanLinInputs:
    def test_weighted_graph_rejected(self):
        graph = nx.cycle_graph(6)
        graph.edges[0, 1]["weight"] = 2.0
        with pytest.raises(ValueError):
            estimate_bisection_bandwidth(graph, trials=1, rng=0)

    @pytest.mark.parametrize("graph_type", [nx.DiGraph, nx.MultiGraph])
    def test_directed_and_multigraphs_rejected(self, graph_type):
        with pytest.raises(ValueError):
            estimate_bisection_bandwidth(nx.cycle_graph(6, create_using=graph_type), trials=1)

    def test_trials_traced_with_kl_work(self):
        graph = nx.random_regular_graph(4, 30, seed=1)
        tracer = enable()
        try:
            estimate_bisection_bandwidth(graph, trials=3, rng=0)
        finally:
            disable()
        spans = [event for event in tracer.events if event["name"] == "bisection.kl"]
        assert len(spans) == 3
        for span in spans:
            counters = span["counters"]
            assert counters["nodes"] == 30
            assert counters["kl.sweeps"] >= 1
            assert counters["kl.moves"] % 2 == 0
        assert any(span["counters"]["kl.moves"] > 0 for span in spans)
