"""Tests for :mod:`repro.graphs.structure` — graph-class recognition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.conflict import BlockGraph, CompleteMultipartiteGraph
from repro.graphs.structure import (
    analyze_structure,
    complete_bipartite_parts,
    complete_bipartite_parts_with_free,
    is_bisubquartic,
    is_cubic,
    is_empty,
    is_forest,
    is_path,
    is_perfect_matching_graph,
    is_regular,
)


class TestBasicPredicates:
    def test_empty_graph_is_empty(self):
        assert is_empty(generators.empty_graph(5))

    def test_single_edge_not_empty(self):
        assert not is_empty(BipartiteGraph(2, [(0, 1)]))

    def test_zero_vertex_graph_is_empty(self):
        assert is_empty(BipartiteGraph(0))

    def test_matching_graph_is_perfect_matching(self):
        assert is_perfect_matching_graph(generators.matching_graph(4))

    def test_path_is_not_perfect_matching(self):
        assert not is_perfect_matching_graph(generators.path_graph(4))

    def test_empty_is_not_perfect_matching(self):
        assert not is_perfect_matching_graph(generators.empty_graph(4))

    def test_zero_vertices_not_perfect_matching(self):
        assert not is_perfect_matching_graph(BipartiteGraph(0))


class TestForest:
    def test_tree_is_forest(self):
        assert is_forest(generators.random_tree(20, seed=1))

    def test_forest_is_forest(self):
        assert is_forest(generators.random_forest(20, 4, seed=2))

    def test_cycle_is_not_forest(self):
        assert not is_forest(generators.even_cycle(6))

    def test_empty_graph_is_forest(self):
        assert is_forest(generators.empty_graph(7))

    def test_cycle_plus_tree_is_not_forest(self):
        g = generators.even_cycle(4).disjoint_union(generators.path_graph(3))
        assert not is_forest(g)

    def test_complete_bipartite_not_forest(self):
        assert not is_forest(generators.complete_bipartite(2, 3))


class TestPath:
    def test_path_recognised(self):
        assert is_path(generators.path_graph(6))

    def test_single_vertex_is_path(self):
        assert is_path(BipartiteGraph(1))

    def test_two_vertices_edge_is_path(self):
        assert is_path(generators.path_graph(2))

    def test_star_is_not_path(self):
        assert not is_path(generators.star(3))

    def test_cycle_is_not_path(self):
        assert not is_path(generators.even_cycle(4))

    def test_disconnected_paths_are_not_a_path(self):
        g = generators.path_graph(3).disjoint_union(generators.path_graph(3))
        assert not is_path(g)

    def test_zero_vertices_not_path(self):
        assert not is_path(BipartiteGraph(0))


class TestRegularity:
    def test_cycle_is_2_regular(self):
        assert is_regular(generators.even_cycle(8), 2)

    def test_k33_is_cubic(self):
        assert is_cubic(generators.complete_bipartite(3, 3))

    def test_k34_is_not_cubic(self):
        assert not is_cubic(generators.complete_bipartite(3, 4))

    def test_empty_graph_not_cubic(self):
        assert not is_cubic(generators.empty_graph(4))

    def test_zero_vertices_not_cubic(self):
        assert not is_cubic(BipartiteGraph(0))

    def test_bisubquartic_k44(self):
        assert is_bisubquartic(generators.complete_bipartite(4, 4))

    def test_not_bisubquartic_k55(self):
        assert not is_bisubquartic(generators.complete_bipartite(5, 5))

    def test_degree_bounded_generator_is_bisubquartic(self):
        g = generators.random_bipartite_degree_bounded(10, 10, 4, seed=3)
        assert is_bisubquartic(g)


class TestCompleteBipartite:
    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (4, 4), (1, 7)])
    def test_kab_recognised(self, a, b):
        parts = complete_bipartite_parts(generators.complete_bipartite(a, b))
        assert parts is not None
        assert sorted(map(len, parts)) == sorted([a, b])

    def test_parts_are_the_actual_parts(self):
        g = generators.complete_bipartite(2, 3)
        left, right = complete_bipartite_parts(g)
        for u in left:
            for v in right:
                assert g.has_edge(u, v)

    def test_missing_edge_rejected(self):
        g = BipartiteGraph.from_parts(2, 2, [(0, 0), (0, 1), (1, 0)])  # K22 minus edge
        assert complete_bipartite_parts(g) is None

    def test_crown_rejected(self):
        assert complete_bipartite_parts(generators.crown(3)) is None

    def test_empty_graph_rejected(self):
        assert complete_bipartite_parts(generators.empty_graph(4)) is None

    def test_isolated_vertex_rejected(self):
        g = generators.complete_bipartite(2, 2).disjoint_union(BipartiteGraph(1))
        assert complete_bipartite_parts(g) is None

    def test_two_components_rejected(self):
        g = generators.complete_bipartite(2, 2).disjoint_union(
            generators.complete_bipartite(1, 1)
        )
        assert complete_bipartite_parts(g) is None

    def test_with_free_accepts_isolated(self):
        g = generators.complete_bipartite(2, 3).disjoint_union(BipartiteGraph(2))
        decomposition = complete_bipartite_parts_with_free(g)
        assert decomposition is not None
        left, right, free = decomposition
        assert sorted(map(len, (left, right))) == [2, 3]
        assert len(free) == 2

    def test_with_free_edgeless(self):
        left, right, free = complete_bipartite_parts_with_free(
            generators.empty_graph(3)
        )
        assert (left, right) == ([], [])
        assert len(free) == 3

    def test_with_free_rejects_double_star(self):
        assert complete_bipartite_parts_with_free(generators.double_star(2, 2)) is None

    def test_with_free_splits_two_class_multipartite_by_side(self):
        # K_{2,3} on shuffled ids plus free vertex 2: side 0 holds vertex 0
        graph = CompleteMultipartiteGraph(6, [(4, 1), (0, 3, 5)])
        assert complete_bipartite_parts_with_free(graph) == ([0, 3, 5], [1, 4], [2])

    def test_with_free_splits_block_star_by_side(self):
        # a star centred on 3, stored as a BlockGraph of three edges
        graph = BlockGraph(6, [(3, 0), (3, 5), (3, 1)])
        assert complete_bipartite_parts_with_free(graph) == ([0, 1, 5], [3], [2, 4])

    @pytest.mark.parametrize(
        "graph",
        [
            CompleteMultipartiteGraph.from_sizes([1, 1, 1]),
            BlockGraph(4, [(0, 1, 2)]),
            BlockGraph(4, [(0, 1), (1, 2), (2, 3)]),
        ],
        ids=["three-classes", "block-triangle", "block-path"],
    )
    def test_with_free_rejects_other_representations(self, graph):
        assert complete_bipartite_parts_with_free(graph) is None

    def test_k1b_is_a_star(self):
        # stars are complete bipartite with a = 1
        parts = complete_bipartite_parts(generators.star(4))
        assert parts is not None
        assert sorted(map(len, parts)) == [1, 4]


class TestAnalyzeStructure:
    def test_empty(self):
        s = analyze_structure(generators.empty_graph(5))
        assert s.empty and s.forest and s.bisubquartic
        assert s.complete_bipartite is None
        assert "empty" in s.describe()

    def test_path(self):
        s = analyze_structure(generators.path_graph(5))
        assert s.path and s.forest and not s.empty
        assert "path" in s.describe()

    def test_complete_bipartite(self):
        s = analyze_structure(generators.complete_bipartite(3, 3))
        assert s.complete_bipartite is not None
        assert s.cubic
        assert "K_{3,3}" in s.describe()

    def test_kab_plus_isolated_description(self):
        g = generators.complete_bipartite(2, 2).disjoint_union(BipartiteGraph(1))
        s = analyze_structure(g)
        assert s.complete_bipartite is None
        assert s.complete_bipartite_free is not None
        assert "isolated" in s.describe()

    def test_counts(self):
        g = generators.matching_graph(3)
        s = analyze_structure(g)
        assert s.n == 6 and s.edge_count == 3 and s.components == 3
        assert s.max_degree == 1 and s.perfect_matching

    def test_general_bipartite_fallback_description(self):
        g = generators.crown(6)  # not complete bipartite, degree 5
        s = analyze_structure(g)
        assert "general bipartite" in s.describe() or "bisubquartic" not in s.describe()


@settings(max_examples=40, deadline=None)
@given(a=st.integers(1, 5), b=st.integers(1, 5))
def test_property_complete_bipartite_roundtrip(a, b):
    """Generated K_{a,b} is always recognised with the right part sizes."""
    parts = complete_bipartite_parts(generators.complete_bipartite(a, b))
    assert parts is not None
    assert sorted(map(len, parts)) == sorted([a, b])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 1000))
def test_property_random_trees_are_forests(n, seed):
    assert is_forest(generators.random_tree(n, seed=seed))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 20),
    extra=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_property_tree_plus_edge_is_not_forest(n, extra, seed):
    """Adding any edge inside a part of a spanning tree creates a cycle."""
    tree = generators.random_tree(n, seed=seed)
    side0 = tree.vertices_on_side(0)
    side1 = tree.vertices_on_side(1)
    # add a cross edge not already present, if one exists
    for u in side0:
        for v in side1:
            if not tree.has_edge(u, v):
                assert not is_forest(tree.with_edges([(u, v)]))
                return
    # K_{a,b} tree (star): every cross pair present — nothing to add
    assert tree.edge_count == n - 1
