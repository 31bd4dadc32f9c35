"""Tests for Hopcroft-Karp maximum matching."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import (
    complete_bipartite,
    crown,
    matching_graph,
    path_graph,
    star,
)
from repro.graphs.matching import hopcroft_karp, is_matching, maximum_matching_size

from tests.conftest import random_bipartite


class TestKnownValues:
    def test_empty(self):
        assert maximum_matching_size(BipartiteGraph(5, [])) == 0

    def test_single_edge(self):
        assert maximum_matching_size(BipartiteGraph(2, [(0, 1)])) == 1

    def test_complete_bipartite(self):
        assert maximum_matching_size(complete_bipartite(3, 5)) == 3

    def test_perfect_matching_graph(self):
        assert maximum_matching_size(matching_graph(6)) == 6

    def test_path(self):
        # P_n has matching floor(n/2)
        for n in range(2, 10):
            assert maximum_matching_size(path_graph(n)) == n // 2

    def test_star(self):
        assert maximum_matching_size(star(7)) == 1

    def test_crown_has_perfect_matching(self):
        # K_{k,k} minus a perfect matching still has one for k >= 2
        assert maximum_matching_size(crown(4)) == 4


class TestMateArray:
    def test_mate_is_valid_matching(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            g = random_bipartite(rng)
            mate = hopcroft_karp(g)
            assert is_matching(g, mate)

    def test_is_matching_rejects_asymmetry(self):
        g = BipartiteGraph(2, [(0, 1)])
        assert not is_matching(g, [1, -1])

    def test_is_matching_rejects_non_edges(self):
        g = BipartiteGraph(4, [(0, 1)])
        assert not is_matching(g, [1, 0, 3, 2])

    def test_is_matching_rejects_wrong_length(self):
        g = BipartiteGraph(2, [(0, 1)])
        assert not is_matching(g, [-1])


class TestAgainstNetworkx:
    def test_random_graphs_match_oracle(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(4)
        for _ in range(40):
            g = random_bipartite(rng, max_side=12)
            ours = maximum_matching_size(g)
            top = [v for v in range(g.n) if g.side[v] == 0]
            theirs = len(nx.algorithms.bipartite.maximum_matching(g.to_networkx(), top_nodes=top)) // 2
            assert ours == theirs


@settings(max_examples=60)
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_matching_bounds_property(a, b, data):
    edges = data.draw(
        st.lists(st.tuples(st.integers(0, a - 1), st.integers(0, b - 1)), max_size=30)
    )
    g = BipartiteGraph.from_parts(a, b, edges)
    mu = maximum_matching_size(g)
    assert 0 <= mu <= min(a, b)
    if g.edge_count > 0:
        assert mu >= 1
    # König: matching size equals vertex cover size, never exceeds edges
    assert mu <= g.edge_count


def test_deep_path_no_recursion_blowup():
    """Long alternating paths must not hit the recursion limit."""
    n = 4000
    g = path_graph(n)
    assert maximum_matching_size(g) == n // 2


def test_hopcroft_karp_deterministic_per_graph():
    from repro.random_graphs.gilbert import gnnp

    g = gnnp(40, 0.1, seed=12)
    assert hopcroft_karp(g) == hopcroft_karp(g)


def test_hopcroft_karp_deep_path_needs_no_recursion_limit():
    # a single long path forces the longest possible augmenting chains;
    # a recursive DFS would need a recursion-limit raise here
    g = path_graph(4001)
    mate = hopcroft_karp(g)
    assert is_matching(g, mate)
    assert sum(1 for v in mate if v != -1) // 2 == 2000
