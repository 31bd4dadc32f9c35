"""Differential proof: Algorithm 1's step 2 and step 8 equal their references.

:func:`~repro.graphs.vertex_cover.min_weight_vertex_cover` runs its own
max-flow on the graph's adjacency, and step 2 masks ``N[required]`` out
instead of building a subgraph.  The reference is the construction it
replaced: a :class:`~tests.flow_reference.FlowNetwork` on the induced
subgraph, with the edge arcs at capacity ``sum(weights) + 1`` so that no
cut can sever them at any weight.  Covers are unique as sets (the source
side of the minimal minimum cut does not depend on the maximum flow), so
the sets must be equal, not just equally heavy.

Step 8's masked coloring is compared with the coloring of
``induced_subgraph`` built the way it used to be: a canonical proper
2-coloring, per component the heavier side into class 1.
"""

from __future__ import annotations

from hypothesis import example, given
from hypothesis import strategies as st

from diffutil import bipartite_graphs
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.coloring import inequitable_two_coloring, proper_two_coloring
from repro.graphs.components import connected_components
from repro.graphs.independent_set import (
    max_weight_independent_set,
    max_weight_independent_set_containing,
)
from repro.graphs.vertex_cover import is_vertex_cover, min_weight_vertex_cover
from tests.flow_reference import FlowNetwork

#: the two cases that ``flow.INF = 2**60`` got wrong: a single edge whose
#: end weights sum past it, and an Algorithm 1 instance whose free jobs do
_K11 = BipartiteGraph.from_parts(1, 1, [(0, 0)])
_K11_WEIGHTS = [2**61, 2**61]
_ALG1 = BipartiteGraph.from_parts(3, 2, [(0, 0), (2, 1)])
_ALG1_P = [2**61, 2**122, 2**61, 2**61, 2**61]


def reference_cover(graph: BipartiteGraph, weights: list[int]) -> set[int]:
    """The König–Egerváry cover from the generic Dinic."""
    n = graph.n
    s, t = n, n + 1
    net = FlowNetwork(n + 2)
    for v in range(n):
        if graph.side[v] == 0:
            net.add_edge(s, v, weights[v])
        else:
            net.add_edge(v, t, weights[v])
    middle = sum(weights) + 1
    for u, v in graph.edges():
        left, right = (u, v) if graph.side[u] == 0 else (v, u)
        net.add_edge(left, right, middle)
    net.max_flow(s, t)
    source_side = net.min_cut_source_side(s)
    return {v for v in range(n) if (graph.side[v] == 0) != (v in source_side)}


def reference_containing(
    graph: BipartiteGraph, weights: list[int], required: list[int]
) -> set[int] | None:
    """Step 2 on the induced subgraph of the vertices outside ``N[required]``."""
    req = set(required)
    if not graph.is_independent_set(req):
        return None
    banned = graph.closed_neighborhood(req)
    sub, ids = graph.induced_subgraph(v for v in range(graph.n) if v not in banned)
    cover = reference_cover(sub, [weights[v] for v in ids])
    return req | {ids[i] for i in range(sub.n) if i not in cover}


def reference_coloring(
    sub: BipartiteGraph, weights: list[int] | None
) -> tuple[list[int], list[int]]:
    """Definition 1 on a whole graph, from its canonical 2-coloring."""
    base = proper_two_coloring(sub)
    weight = len if weights is None else (lambda vs: sum(weights[v] for v in vs))
    class1: list[int] = []
    class2: list[int] = []
    for comp in connected_components(sub):
        side_a = [v for v in comp if base[v] == 0]
        side_b = [v for v in comp if base[v] == 1]
        heavy, light = (side_a, side_b) if weight(side_a) >= weight(side_b) else (side_b, side_a)
        class1 += heavy
        class2 += light
    return sorted(class1), sorted(class2)


@st.composite
def weighted_graphs(draw: st.DrawFn) -> tuple[BipartiteGraph, list[int]]:
    """Two-sided graphs plus a few extra isolated vertices, with weights
    drawn below 21, 2**61 or 2**70."""
    graph = draw(bipartite_graphs())
    extra = draw(st.lists(st.integers(0, 1), max_size=3))
    if extra:
        graph = BipartiteGraph(
            graph.n + len(extra), graph.edges(), side=graph.side + tuple(extra)
        )
    top = draw(st.sampled_from([20, 2**61, 2**70]))
    weights = draw(st.lists(st.integers(1, top), min_size=graph.n, max_size=graph.n))
    return graph, weights


@st.composite
def weighted_subsets(draw: st.DrawFn) -> tuple[BipartiteGraph, list[int], list[int]]:
    graph, weights = draw(weighted_graphs())
    subset = (
        draw(st.lists(st.integers(0, graph.n - 1), unique=True, max_size=graph.n))
        if graph.n
        else []
    )
    return graph, weights, subset


def shuffled_chain(
    n: int,
    order: list[int],
    rising: bool,
    cycle: bool = False,
    chords: tuple[tuple[int, int], ...] = (),
) -> tuple[BipartiteGraph, list[int]]:
    """A path (or an even cycle) through positions ``0..n-1``, vertex
    ``order[i]`` at position ``i``, weights rising or falling along it,
    plus ``chords`` between positions an odd distance apart."""
    edges = [(order[i], order[i + 1]) for i in range(n - 1)]
    if cycle:
        edges.append((order[-1], order[0]))
    edges += [(order[i], order[j]) for i, j in chords]
    side = [0] * n
    weights = [0] * n
    for i, v in enumerate(order):
        side[v] = i % 2
        weights[v] = i + 1 if rising else n - i
    return BipartiteGraph(n, edges, side=side), weights


@st.composite
def chains(draw: st.DrawFn) -> tuple[BipartiteGraph, list[int]]:
    """Shuffled paths and even cycles up to 60 vertices, weights rising or
    falling along them: a phase-based flow needs one pass per
    augmenting-path length on them, and the greedy pass leaves them
    cascades of one-unit flows; cycles may carry up to three chords."""
    cycle = draw(st.booleans())
    n = 2 * draw(st.integers(2, 30)) if cycle else draw(st.integers(1, 60))
    order = draw(st.permutations(range(n)))
    chords: list[tuple[int, int]] = []
    if cycle:
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
            if (i - j) % 2 and (i - j) % n not in (1, n - 1):
                chords.append((i, j))
    return shuffled_chain(n, list(order), draw(st.booleans()), cycle, tuple(chords))


@given(case=chains())
def test_cover_on_shuffled_paths_and_cycles_matches_the_generic_flow(case):
    graph, weights = case
    cover = min_weight_vertex_cover(graph, weights)
    assert cover == reference_cover(graph, weights)


def test_cover_when_no_neighbour_has_room_for_the_whole_weight():
    """Left 0 (weight 10) meets rights of 4, 4 and 4, one of them partly
    used by left 1: the greedy pass splits it and leaves one unit of
    excess for push-relabel, which has to reroute left 1."""
    graph = BipartiteGraph.from_parts(2, 3, [(0, 0), (0, 1), (0, 2), (1, 2)])
    weights = [10, 3, 4, 4, 4]
    assert min_weight_vertex_cover(graph, weights) == reference_cover(graph, weights)
    for w1 in range(1, 12):
        weights = [10, w1, 4, 4, 4]
        assert min_weight_vertex_cover(graph, weights) == reference_cover(graph, weights)


@given(case=weighted_graphs())
@example(case=(_K11, _K11_WEIGHTS))
@example(case=(_ALG1, _ALG1_P))
def test_cover_matches_the_generic_flow(case):
    graph, weights = case
    cover = min_weight_vertex_cover(graph, weights)
    assert is_vertex_cover(graph, cover)
    assert cover == reference_cover(graph, weights)
    assert max_weight_independent_set(graph, weights) == set(range(graph.n)) - cover


@given(case=weighted_subsets())
@example(case=(_K11, _K11_WEIGHTS, []))
@example(case=(_ALG1, _ALG1_P, [1]))  # Algorithm 1's heavy jobs: p_j**2 >= sum p
def test_independent_set_containing_matches_the_subgraph_flow(case):
    graph, weights, required = case
    got = max_weight_independent_set_containing(graph, weights, required)
    assert got == reference_containing(graph, weights, required)
    if got is not None:
        assert graph.is_independent_set(got) and set(required) <= got


def assert_masked_coloring_matches(
    graph: BipartiteGraph, weights: list[int] | None, vertices: list[int]
) -> None:
    sub, ids = graph.induced_subgraph(vertices)
    sub_weights = None if weights is None else [weights[v] for v in ids]
    expected = tuple([ids[v] for v in cls] for cls in reference_coloring(sub, sub_weights))
    assert inequitable_two_coloring(graph, weights, vertices) == expected
    if len(vertices) == graph.n:
        assert inequitable_two_coloring(graph, weights) == expected


@given(case=weighted_subsets(), unit=st.booleans())
def test_masked_coloring_matches_the_induced_subgraph(case, unit):
    graph, weights, vertices = case
    assert_masked_coloring_matches(graph, None if unit else weights, vertices)


def test_long_path_needs_no_recursion():
    """A 20 001-vertex path whose greedy pass leaves one augmenting path
    through every vertex but the two ends.

    ``L_2..L_k`` each send their unit into the lower neighbour ``R_{i-1}``
    (``L_k`` into the pendant ``H``); ``L_1`` goes last, fills ``Y`` and
    is left with one unit, and ``R_{k-1}`` with one free unit.
    """
    k = 10_000
    edges = (
        [(j, j) for j in range(k - 1)]            # L_{j+2} - R_{j+1}
        + [(j, j + 1) for j in range(k - 2)]      # L_{j+2} - R_{j+2}
        + [(k - 2, k - 1), (k - 1, 0), (k - 1, k)]  # L_k - H, L_1 - R_1, L_1 - Y
    )
    graph = BipartiteGraph.from_parts(k, k + 1, edges)
    assert graph.n == 20_001 and graph.edge_count == graph.n - 1
    weights = [1] * graph.n
    weights[k - 1] = 2  # L_1
    # the flow saturates every left vertex, so s reaches nothing
    assert min_weight_vertex_cover(graph, weights) == set(range(k))
    rights = set(range(k, graph.n))
    assert max_weight_independent_set_containing(graph, weights, [graph.n - 1]) == rights
    assert_masked_coloring_matches(graph, weights, list(range(1, graph.n)))
