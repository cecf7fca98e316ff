"""Micro-benchmarks of the CSR graph kernels against the retained references.

``--benchmark-only`` runs these alongside the seed benchmarks; the
``record_kernels.py`` script in this directory turns the same comparisons
into the committed ``BENCH_kernels.json`` trajectory snapshot.
"""

import random

import networkx as nx
import pytest

from repro.graphs._reference import kernighan_lin_once_reference
from repro.graphs.bisection import _kernighan_lin_once
from repro.graphs.csr import batched_hop_distances, clear_csr_cache, csr_graph
from repro.graphs.regular import random_regular_graph
from repro.graphs.properties import average_path_length, diameter
from repro.routing._reference import (
    all_pairs_hop_distances_reference,
    k_shortest_paths_reference,
)
from repro.routing.ksp import all_pairs_k_shortest_paths, k_shortest_paths
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic


@pytest.fixture(scope="module")
def fig05_scale_graph():
    """A fig05-style Jellyfish at reduced size (paper degree, fewer switches)."""
    return JellyfishTopology.build(400, 48, 36, rng=0).graph


@pytest.fixture(scope="module")
def ksp_graph():
    return JellyfishTopology.build(100, 10, 6, rng=2).graph


@pytest.fixture(scope="module")
def kl_graph():
    """A 720-switch degree-12 RRG, the size fig02a-ens bisects at paper scale."""
    return random_regular_graph(720, 12, rng=0)


def test_bench_batched_bfs_all_pairs(benchmark, fig05_scale_graph):
    clear_csr_cache()
    csr_graph(fig05_scale_graph)
    matrix = benchmark(batched_hop_distances, fig05_scale_graph)
    assert matrix.shape == (400, 400)


def test_bench_reference_bfs_all_pairs(benchmark, fig05_scale_graph):
    table = benchmark.pedantic(
        all_pairs_hop_distances_reference, args=(fig05_scale_graph,),
        iterations=1, rounds=2,
    )
    assert len(table) == 400


def test_bench_fig05_scale_metrics(benchmark, fig05_scale_graph):
    """Mean path length + diameter, the exact queries fig05 issues per size."""
    clear_csr_cache()

    def run():
        clear_csr_cache()
        return average_path_length(fig05_scale_graph), diameter(fig05_scale_graph)

    mean_hops, diam = benchmark(run)
    assert 1.0 < mean_hops < 3.0
    assert diam <= 4


def test_bench_csr_yen_cold(benchmark, ksp_graph):
    nodes = sorted(ksp_graph.nodes)
    clear_csr_cache()
    csr = csr_graph(ksp_graph)

    def run():
        csr.result_cache.clear()
        return k_shortest_paths(ksp_graph, nodes[0], nodes[-1], 8)

    paths = benchmark(run)
    assert len(paths) == 8


def test_bench_csr_yen_warm(benchmark, ksp_graph):
    nodes = sorted(ksp_graph.nodes)
    paths = benchmark(k_shortest_paths, ksp_graph, nodes[0], nodes[-1], 8)
    assert len(paths) == 8


def test_bench_reference_yen(benchmark, ksp_graph):
    nodes = sorted(ksp_graph.nodes)
    paths = benchmark(k_shortest_paths_reference, ksp_graph, nodes[0], nodes[-1], 8)
    assert len(paths) == 8


@pytest.fixture(scope="module")
def table1_batch():
    """Table 1's Jellyfish (245 switches, 14 ports, 780 servers) and the
    switch pairs of one random permutation."""
    topology = JellyfishTopology.from_equipment(245, 14, 780, rng=0)
    traffic = random_permutation_traffic(topology, rng=1)
    pairs = [pair for pair in traffic.switch_pairs() if pair[0] != pair[1]]
    return topology.graph, pairs


def _cold_ksp_batch(graph, pairs, k):
    clear_csr_cache()
    return all_pairs_k_shortest_paths(graph, pairs, k)


def test_bench_ksp_table1_batch(benchmark, table1_batch):
    """One permutation's 8-shortest paths from a cold CSR view (timing only)."""
    graph, pairs = table1_batch
    table = benchmark.pedantic(
        _cold_ksp_batch, args=(graph, pairs, 8), iterations=1, rounds=3
    )
    assert len(table) == len(pairs)


def test_bench_ksp_high_diameter_ladder(benchmark):
    """40 random pairs on a 1,500-rung ladder, where spur searches that find
    no path widen their bound pass by pass (timing only)."""
    graph = nx.ladder_graph(1500)
    rng = random.Random(0)
    nodes = list(graph.nodes)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(40)]
    table = benchmark.pedantic(
        _cold_ksp_batch, args=(graph, pairs, 8), iterations=1, rounds=1
    )
    assert len(table) == len(set(pairs))


def test_bench_kernighan_lin(benchmark, kl_graph):
    """One KL trial on the index-space kernel (timing only)."""
    _, cut = benchmark(_kernighan_lin_once, kl_graph, random.Random(0))
    assert cut > 0


def test_bench_reference_kernighan_lin(benchmark, kl_graph):
    """The same trial on the retained networkx body (timing only)."""
    _, cut = benchmark.pedantic(
        kernighan_lin_once_reference, args=(kl_graph, random.Random(0)),
        iterations=1, rounds=3,
    )
    assert cut > 0
