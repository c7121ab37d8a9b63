import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.gap.common import make_worklist
from repro.workloads.graphs import (
    graph_stats,
    road_network,
    to_csr,
    uniform_graph,
    web_graph,
)
from repro.workloads.spec17 import _random_words


class TestGenerators:
    def test_road_network_properties(self):
        adj = road_network(1024, seed=1)
        stats = graph_stats(adj)
        # Road networks: low mean degree, narrow distribution.
        assert 2.0 < stats["avg_degree"] < 4.0
        assert stats["max_degree"] <= 10

    def test_web_graph_heavy_tail(self):
        adj = web_graph(1024, seed=2)
        stats = graph_stats(adj)
        # Preferential attachment: hubs far above the mean.
        assert stats["max_degree"] > 4 * stats["avg_degree"]

    def test_uniform_graph_degree(self):
        adj = uniform_graph(1024, avg_degree=4.0, seed=3)
        stats = graph_stats(adj)
        assert 3.0 < stats["avg_degree"] < 5.0

    def test_graphs_are_undirected(self):
        for gen in (road_network, web_graph, uniform_graph):
            adj = gen(256)
            for u, ns in enumerate(adj):
                for v in ns:
                    assert u in adj[v], f"{gen.__name__}: edge {u}->{v} not symmetric"

    def test_no_self_loops_or_duplicates(self):
        for gen in (road_network, web_graph, uniform_graph):
            adj = gen(256)
            for u, ns in enumerate(adj):
                assert u not in ns
                assert len(ns) == len(set(ns))

    def test_deterministic_by_seed(self):
        assert road_network(256, seed=9) == road_network(256, seed=9)
        assert road_network(256, seed=9) != road_network(256, seed=10)


class TestCSR:
    def test_round_trip(self):
        adj = [[1, 2], [0], [0], []]
        offsets, neighbors = to_csr(adj)
        assert offsets == [0, 2, 3, 4, 4]
        assert neighbors == [1, 2, 0, 0]

    def test_empty_graph(self):
        offsets, neighbors = to_csr([])
        assert offsets == [0]
        assert neighbors == []

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 31), max_size=6), min_size=1, max_size=32))
    def test_offsets_monotone_and_complete(self, adj):
        offsets, neighbors = to_csr(adj)
        assert len(offsets) == len(adj) + 1
        assert all(a <= b for a, b in zip(offsets, offsets[1:]))
        assert offsets[-1] == len(neighbors)
        for u, ns in enumerate(adj):
            assert neighbors[offsets[u]:offsets[u + 1]] == ns


class TestEmptyRanges:
    """The builders draw with ``Random._randbelow``, which never returns
    for an empty range: each raises ``ValueError`` first, as
    ``randrange`` did."""

    def test_road_network_without_nodes_raises(self):
        with pytest.raises(ValueError):
            road_network(0)

    def test_uniform_graph_without_nodes_is_empty(self):
        assert uniform_graph(0) == []
        with pytest.raises(ValueError):
            uniform_graph(-4, avg_degree=-4.0)

    def test_worklist_over_no_nodes_raises(self):
        assert make_worklist(0, 0, 0) == []
        with pytest.raises(ValueError):
            make_worklist(0, 1, 0)

    def test_random_words_over_an_empty_range_raises(self):
        rng = random.Random(0)
        assert _random_words(rng, 0, 5, 5) == []
        with pytest.raises(ValueError):
            _random_words(rng, 1, 5, 5)

    def test_draws_match_randrange(self):
        ref = random.Random(9)
        assert make_worklist(37, 200, 9) == [ref.randrange(37)
                                             for _ in range(200)]
        ref = random.Random(4)
        assert _random_words(random.Random(4), 50, 3, 900) == [
            ref.randrange(3, 900) for _ in range(50)]
