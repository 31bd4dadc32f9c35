"""Tests for connected-component decomposition."""

from hypothesis import given, strategies as st

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import connected_components
from repro.graphs.generators import matching_graph, path_graph


class TestConnectedComponents:
    def test_empty_graph(self):
        assert connected_components(BipartiteGraph(0, [])) == []

    def test_isolated_vertices_are_singletons(self):
        comps = connected_components(BipartiteGraph(3, []))
        assert comps == [[0], [1], [2]]

    def test_path_is_one_component(self):
        comps = connected_components(path_graph(6))
        assert comps == [[0, 1, 2, 3, 4, 5]]

    def test_matching_has_k_components(self):
        comps = connected_components(matching_graph(4))
        assert len(comps) == 4
        assert all(len(c) == 2 for c in comps)

    def test_deterministic_ordering(self):
        g = BipartiteGraph(6, [(4, 5), (0, 1)])
        comps = connected_components(g)
        assert comps == [[0, 1], [2], [3], [4, 5]]


@given(st.integers(0, 12), st.data())
def test_components_partition_property(n, data):
    edges = []
    if n >= 2:
        edges = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=15,
            )
        )
    # force bipartiteness: connect only even-odd pairs
    edges = [(u, v) for u, v in edges if (u + v) % 2 == 1]
    g = BipartiteGraph(n, edges)
    comps = connected_components(g)
    flat = sorted(v for c in comps for v in c)
    assert flat == list(range(n))
    # every edge stays within one component
    comp_of = {}
    for idx, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = idx
    for u, v in g.edges():
        assert comp_of[u] == comp_of[v]
