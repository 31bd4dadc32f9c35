"""Tests for :mod:`repro.graphs.maximal_matching` (Theorem 17 support)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.matching import maximum_matching_size
from repro.graphs.maximal_matching import (
    greedy_maximal_matching,
    is_maximal_matching,
    matching_size,
    minimum_maximal_matching_size,
    small_maximal_matching,
)
from repro.random_graphs.gilbert import gnnp


class TestIsMaximalMatching:
    def test_empty_graph(self):
        g = generators.empty_graph(3)
        assert is_maximal_matching(g, [-1, -1, -1])

    def test_missing_partner_symmetry(self):
        g = BipartiteGraph(2, [(0, 1)])
        assert not is_maximal_matching(g, [1, -1])

    def test_non_edge_rejected(self):
        g = BipartiteGraph(4, [(0, 1), (2, 3)])
        assert not is_maximal_matching(g, [2, -1, 0, -1])

    def test_extendable_rejected(self):
        g = BipartiteGraph(2, [(0, 1)])
        assert not is_maximal_matching(g, [-1, -1])

    def test_valid_maximal(self):
        g = generators.path_graph(4)  # 0-1-2-3
        assert is_maximal_matching(g, [1, 0, 3, 2])
        assert is_maximal_matching(g, [-1, 2, 1, -1])  # middle edge dominates

    def test_wrong_length(self):
        g = BipartiteGraph(2, [(0, 1)])
        assert not is_maximal_matching(g, [1, 0, -1])


class TestGreedyMaximal:
    @pytest.mark.parametrize(
        "graph",
        [
            generators.path_graph(7),
            generators.complete_bipartite(3, 4),
            generators.crown(4),
            generators.matching_graph(5),
            generators.star(6),
        ],
    )
    def test_always_maximal(self, graph):
        mate = greedy_maximal_matching(graph)
        assert is_maximal_matching(graph, mate)

    def test_respects_custom_order(self):
        g = generators.path_graph(3)  # edges (0,1), (1,2)
        mate = greedy_maximal_matching(g, order=[(1, 2), (0, 1)])
        assert mate[1] == 2 and mate[0] == -1


class TestSmallMaximal:
    @pytest.mark.parametrize(
        "graph",
        [
            generators.path_graph(8),
            generators.complete_bipartite(4, 4),
            generators.crown(5),
            generators.double_star(3, 3),
            generators.caterpillar(4, 2),
        ],
    )
    def test_always_maximal(self, graph):
        mate = small_maximal_matching(graph)
        assert is_maximal_matching(graph, mate)

    def test_star_uses_single_edge(self):
        # beta(star) = 1: matching the centre dominates everything
        mate = small_maximal_matching(generators.star(6))
        assert matching_size(mate) == 1

    def test_double_star_bridge_edge(self):
        # the bridge edge covers both centres and dominates everything
        g = generators.double_star(3, 3)
        assert matching_size(small_maximal_matching(g)) == 1


class TestMinimumMaximal:
    def test_single_edge(self):
        assert minimum_maximal_matching_size(BipartiteGraph(2, [(0, 1)])) == 1

    def test_star_is_one(self):
        assert minimum_maximal_matching_size(generators.star(5)) == 1

    def test_double_star_is_one(self):
        # the bridge edge alone dominates every other edge
        assert minimum_maximal_matching_size(generators.double_star(3, 3)) == 1

    def test_path4(self):
        # P4 = 0-1-2-3: middle edge (1,2) alone is maximal
        assert minimum_maximal_matching_size(generators.path_graph(4)) == 1

    def test_path5(self):
        assert minimum_maximal_matching_size(generators.path_graph(5)) == 2

    def test_perfect_matching_graph(self):
        # disjoint edges: every edge must be picked
        assert minimum_maximal_matching_size(generators.matching_graph(4)) == 4

    def test_complete_bipartite(self):
        # K_{a,b}: any maximal matching has exactly min(a, b) edges
        assert minimum_maximal_matching_size(generators.complete_bipartite(3, 5)) == 3

    def test_empty(self):
        assert minimum_maximal_matching_size(generators.empty_graph(4)) == 0


def _nx_minimum_maximal_matching(graph: BipartiteGraph) -> int:
    """Oracle: brute force over all maximal matchings via networkx edges."""
    edges = list(graph.edges())
    best = len(edges)
    n = graph.n

    def recurse(idx: int, covered: set, size: int):
        nonlocal best
        if size >= best:
            return
        rest = [e for e in edges[idx:]]
        open_edges = [
            (u, v) for u, v in edges if u not in covered and v not in covered
        ]
        if not open_edges:
            best = min(best, size)
            return
        u, v = open_edges[0]
        for a, b in [(u, w) for w in graph.neighbors(u) if w not in covered] + [
            (v, w) for w in graph.neighbors(v) if w not in covered and w != u
        ]:
            recurse(idx, covered | {a, b}, size + 1)

    recurse(0, set(), 0)
    return best


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 6), p=st.floats(0.1, 0.9), seed=st.integers(0, 500))
def test_property_bnb_matches_exhaustive(n, p, seed):
    g = gnnp(n, p, seed=seed)
    assert minimum_maximal_matching_size(g) == _nx_minimum_maximal_matching(g)


@pytest.mark.parametrize("p, seed", [(0.7, 50), (0.6, 300)])
def test_dense_graphs_that_once_took_seconds(p, seed):
    """beta on two G(10, 10, p) graphs whose search took 13-24 s before
    nodes were pruned on a greedy matching of the undominated edges."""
    assert minimum_maximal_matching_size(gnnp(10, p, seed=seed)) == 8


@pytest.mark.parametrize(
    "p, seed, beta", [(0.75, 21, 8), (0.8, 0, 8), (0.8, 7, 8), (0.8, 21, 9)]
)
def test_dense_graphs_where_branch_and_bound_ran_past_3s(p, seed, beta):
    """beta on G(10, 10, p) graphs where the pruned branch and bound this
    replaced ran 3-80 s; the values are the ones it computed."""
    assert minimum_maximal_matching_size(gnnp(10, p, seed=seed)) == beta


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), p=st.floats(0.05, 0.8), seed=st.integers(0, 500))
def test_property_sandwich(n, p, seed):
    """beta <= heuristic <= mu, and every output is maximal."""
    g = gnnp(n, p, seed=seed)
    mu = maximum_matching_size(g)
    small = matching_size(small_maximal_matching(g))
    greedy = matching_size(greedy_maximal_matching(g))
    beta = minimum_maximal_matching_size(g)
    assert beta <= small <= mu
    assert beta <= greedy <= mu
    assert is_maximal_matching(g, small_maximal_matching(g))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 500))
def test_property_nx_oracle_maximum(n, seed):
    """The greedy matchings never exceed networkx's maximum matching."""
    g = gnnp(n, 0.4, seed=seed)
    nxg = g.to_networkx()
    mu_nx = len(nx.bipartite.maximum_matching(
        nxg, top_nodes=[v for v in range(g.n) if g.side[v] == 0]
    )) // 2
    assert matching_size(greedy_maximal_matching(g)) <= mu_nx
