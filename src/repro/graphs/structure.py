"""Structural recognition of conflict-graph classes.

The literature around the paper attaches better algorithms to restricted
graph classes: complete (multi)partite graphs get exact unary-encoding
algorithms ([20], [24], Pikies–Turowski arXiv:2010.13207), trees get a
5/3-approximation ([3]), cubic and bisubquartic graphs get dedicated
uniform-machine results ([8], [23]), and block-type graphs (every
biconnected component a clique, Furmańczyk et al. arXiv:2207.05868) admit
optimal greedy coloring.  This module recognises those classes so
:mod:`repro.engine` can dispatch to the strongest applicable method, and
so tests can assert that generators produce what they claim.

Every predicate works on any :class:`~repro.graphs.conflict.ConflictGraph`
— recognition is *structural* (adjacency-based), independent of which
representation class the graph happens to be stored in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import NotBipartiteError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import connected_components
from repro.graphs.conflict import ConflictGraph, biconnected_components, two_coloring

__all__ = [
    "is_empty",
    "is_perfect_matching_graph",
    "is_forest",
    "is_path",
    "is_regular",
    "is_cubic",
    "is_bisubquartic",
    "is_bipartite_structure",
    "as_bipartite_graph",
    "is_block_structure",
    "multipartite_decomposition",
    "classify_conflict_graph",
    "complete_bipartite_parts",
    "complete_bipartite_parts_with_free",
    "GraphStructure",
    "analyze_structure",
]


def is_empty(graph: ConflictGraph) -> bool:
    """Whether the graph has no edges (``alpha||Cmax``: no constraint)."""
    return graph.edge_count == 0


def is_perfect_matching_graph(graph: ConflictGraph) -> bool:
    """Whether every vertex has degree exactly 1 (disjoint edges only)."""
    return graph.n > 0 and all(graph.degree(v) == 1 for v in range(graph.n))


def is_forest(graph: ConflictGraph) -> bool:
    """Whether the graph is acyclic.

    A graph is a forest iff every connected component on ``c`` vertices has
    exactly ``c - 1`` edges; trees are the class for which [3] gives an
    ``O(n log n)`` 5/3-approximation on identical machines.
    """
    for comp in connected_components(graph):
        comp_set = set(comp)
        edges = sum(1 for v in comp for u in graph.neighbors(v) if u in comp_set)
        if edges // 2 != len(comp) - 1:
            return False
    return True


def is_path(graph: ConflictGraph) -> bool:
    """Whether the graph is a single simple path (possibly one vertex)."""
    if graph.n == 0:
        return False
    comps = connected_components(graph)
    if len(comps) != 1:
        return False
    degs = sorted(graph.degree(v) for v in range(graph.n))
    if graph.n == 1:
        return degs == [0]
    return degs[0] == degs[1] == 1 and all(d == 2 for d in degs[2:])


def is_regular(graph: ConflictGraph, degree: int) -> bool:
    """Whether every vertex has degree exactly ``degree``."""
    return all(graph.degree(v) == degree for v in range(graph.n))


def is_cubic(graph: ConflictGraph) -> bool:
    """Whether the graph is 3-regular (the class studied in [8])."""
    return graph.n > 0 and is_regular(graph, 3)


def is_bisubquartic(graph: ConflictGraph) -> bool:
    """Whether the maximum degree is at most 4.

    Bisubquartic graphs (bipartite subgraphs of 4-regular graphs) are the
    class for which [23] gives a 2-approximation with unit jobs.
    """
    return graph.max_degree() <= 4


def is_bipartite_structure(graph: ConflictGraph) -> bool:
    """Whether the graph is 2-colorable (structurally bipartite).

    :class:`~repro.graphs.bipartite.BipartiteGraph` instances carry a
    validated witness and short-circuit to ``True``; other
    representations are checked by 2-coloring.
    """
    return isinstance(graph, BipartiteGraph) or two_coloring(graph) is not None


def as_bipartite_graph(graph: ConflictGraph) -> BipartiteGraph:
    """A :class:`BipartiteGraph` view of any 2-colorable conflict graph.

    Bipartite-specific algorithms (Hopcroft–Karp matching, König vertex
    covers) need the concrete representation with its side witness, but
    :mod:`repro.engine` gates them *structurally* — a 2-colorable
    :class:`~repro.graphs.conflict.BlockGraph` (a forest, say) passes the
    gate.  This converts such a graph with its canonical 2-coloring,
    preserving vertex numbering; isolated vertices land on side 0.
    Raises :class:`~repro.exceptions.NotBipartiteError` on an odd cycle.

    ``BipartiteGraph`` inputs are returned unchanged.
    """
    if isinstance(graph, BipartiteGraph):
        return graph
    color = two_coloring(graph)
    if color is None:
        raise NotBipartiteError("graph has an odd cycle, so it is not bipartite")
    edges = [
        (u, v) for u in range(graph.n) for v in graph.neighbors(u) if u < v
    ]
    return BipartiteGraph(graph.n, edges, side=color)


def is_block_structure(graph: ConflictGraph) -> bool:
    """Whether every biconnected component induces a clique.

    This is the defining property of block graphs (clique forests,
    Furmańczyk et al. arXiv:2207.05868).  Forests and disjoint clique
    unions qualify; any chordless cycle of length >= 4 does not.
    """
    for comp in biconnected_components(graph):
        need = len(comp) - 1
        comp_set = set(comp)
        for v in comp:
            if len(graph.neighbors(v) & comp_set) < need:
                return False
    return True


def multipartite_decomposition(
    graph: ConflictGraph,
) -> tuple[list[list[int]], list[int]] | None:
    """Decompose into ``(classes, free)`` when the graph is complete
    multipartite on its non-isolated vertices.

    A graph is complete multipartite iff non-adjacency is transitive on
    the active (degree > 0) vertices: the classes are the groups of
    active vertices with *identical* neighbour sets, and every vertex
    must see exactly the active vertices outside its own class.
    Isolated vertices are returned as ``free`` (edgeless graphs
    decompose as ``([], all_vertices)``).  Returns ``None`` when the
    graph is not complete multipartite.
    """
    free = [v for v in range(graph.n) if graph.degree(v) == 0]
    active = [v for v in range(graph.n) if graph.degree(v) > 0]
    if not active:
        return [], free
    active_set = frozenset(active)
    groups: dict[frozenset[int], list[int]] = {}
    for v in active:
        groups.setdefault(graph.neighbors(v), []).append(v)
    classes: list[list[int]] = []
    for nbrs, members in groups.items():
        if nbrs != active_set - frozenset(members):
            return None
        classes.append(sorted(members))
    classes.sort()
    return classes, free


def classify_conflict_graph(graph: ConflictGraph) -> str:
    """Structural class of ``graph``, independent of its representation.

    Returns one of ``"edgeless"``, ``"complete_bipartite"``,
    ``"complete_multipartite"``, ``"bipartite"``, ``"block"``, or
    ``"general"``.  Precedence runs most-specific-first: a complete
    multipartite graph with two classes reports ``"complete_bipartite"``
    even when stored as a :class:`CompleteMultipartiteGraph`, and a
    triangle (three singleton classes — also a block) reports
    ``"complete_multipartite"``.  Classification depends only on
    adjacency, so it is stable under vertex relabeling.
    """
    if graph.edge_count == 0:
        return "edgeless"
    mp = multipartite_decomposition(graph)
    if mp is not None:
        classes, _free = mp
        if len(classes) == 2:
            return "complete_bipartite"
        return "complete_multipartite"
    if is_bipartite_structure(graph):
        return "bipartite"
    if is_block_structure(graph):
        return "block"
    return "general"


def complete_bipartite_parts(
    graph: ConflictGraph,
) -> tuple[list[int], list[int]] | None:
    """The two parts if the graph is exactly ``K_{a,b}``, else ``None``.

    "Exactly" means every vertex is incident to every vertex of the other
    part; in particular isolated vertices (and edgeless graphs) are
    rejected — use :func:`complete_bipartite_parts_with_free` to tolerate
    them.  ``K_{a,b}`` is the family behind Theorem 23's inapproximability
    and the exact unary algorithm of [20]/[24].
    """
    if graph.edge_count == 0:
        return None
    parts = complete_bipartite_parts_with_free(graph)
    if parts is None:
        return None
    left, right, free = parts
    if free:
        return None
    return left, right


def complete_bipartite_parts_with_free(
    graph: ConflictGraph,
) -> tuple[list[int], list[int], list[int]] | None:
    """Decompose into ``(left, right, free)`` when the non-isolated part of
    the graph is complete bipartite.

    ``free`` collects the isolated vertices (jobs with no conflicts, which
    any machine may take).  Returns ``None`` when the non-isolated
    subgraph is not a complete join of two independent sets.  Edgeless
    graphs decompose as ``([], [], all_vertices)``.

    For :class:`~repro.graphs.bipartite.BipartiteGraph` the split follows
    the bipartition witness (side 0 left), keeping pre-refactor behaviour
    bit-for-bit; other representations split by the (deterministic,
    sorted) structural decomposition.
    """
    free = [v for v in range(graph.n) if graph.degree(v) == 0]
    active = [v for v in range(graph.n) if graph.degree(v) > 0]
    if not active:
        return [], [], free
    if isinstance(graph, BipartiteGraph):
        # a complete bipartite graph is connected, so all active vertices
        # must share one component; the parts are the two coloring classes
        comps = [c for c in connected_components(graph) if len(c) > 1]
        if len(comps) != 1:
            return None
        left = [v for v in comps[0] if graph.side[v] == 0]
        right = [v for v in comps[0] if graph.side[v] == 1]
        # completeness: every left vertex sees every right vertex.
        # Comparing degree to |other part| suffices (no multi-edges).
        if any(graph.degree(v) != len(right) for v in left):
            return None
        if any(graph.degree(v) != len(left) for v in right):
            return None
        return left, right, free
    mp = multipartite_decomposition(graph)
    if mp is None:
        return None
    classes, mp_free = mp
    if len(classes) != 2:
        return None
    return classes[0], classes[1], mp_free


@dataclass(frozen=True)
class GraphStructure:
    """A structural fingerprint used by the solver dispatcher.

    Flags are not mutually exclusive (a path is also a forest and
    bisubquartic); :func:`repro.engine.solve` consults them from most
    to least specific.
    """

    n: int
    edge_count: int
    max_degree: int
    components: int
    empty: bool
    perfect_matching: bool
    forest: bool
    path: bool
    cubic: bool
    bisubquartic: bool
    complete_bipartite: tuple[tuple[int, ...], tuple[int, ...]] | None
    complete_bipartite_free: (
        tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None
    )
    # conflict-graph generalization (defaults keep older construction sites
    # and serialized fingerprints working)
    graph_family: str = "bipartite"
    conflict_class: str = "general"
    multipartite: (
        tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None
    ) = None
    block: bool = False

    def describe(self) -> str:
        """Human-readable one-line summary (used by the CLI)."""
        tags: list[str] = []
        if self.empty:
            tags.append("empty")
        if self.perfect_matching:
            tags.append("perfect matching")
        if self.path:
            tags.append("path")
        elif self.forest:
            tags.append("forest")
        if self.cubic:
            tags.append("cubic")
        if self.complete_bipartite is not None:
            a = len(self.complete_bipartite[0])
            b = len(self.complete_bipartite[1])
            tags.append(f"complete bipartite K_{{{a},{b}}}")
        elif self.complete_bipartite_free is not None and not self.empty:
            a = len(self.complete_bipartite_free[0])
            b = len(self.complete_bipartite_free[1])
            f = len(self.complete_bipartite_free[2])
            tags.append(f"K_{{{a},{b}}} + {f} isolated")
        if self.conflict_class == "complete_multipartite" and self.multipartite:
            classes, free = self.multipartite
            sizes = ",".join(str(len(c)) for c in classes)
            tag = f"complete multipartite K_{{{sizes}}}"
            if free:
                tag += f" + {len(free)} isolated"
            tags.append(tag)
        if self.conflict_class == "block":
            tags.append("block graph")
        if self.bisubquartic and not self.empty:
            tags.append("bisubquartic")
        if not tags:
            tags.append(
                "general bipartite"
                if self.conflict_class == "bipartite"
                else "general conflict graph"
            )
        return (
            f"n={self.n}, |E|={self.edge_count}, max_deg={self.max_degree}, "
            f"components={self.components}: " + ", ".join(tags)
        )


def analyze_structure(graph: ConflictGraph) -> GraphStructure:
    """Compute the full :class:`GraphStructure` fingerprint of ``graph``."""
    cb = complete_bipartite_parts(graph)
    cbf = complete_bipartite_parts_with_free(graph)
    mp = multipartite_decomposition(graph)
    return GraphStructure(
        n=graph.n,
        edge_count=graph.edge_count,
        max_degree=graph.max_degree(),
        components=len(connected_components(graph)),
        empty=is_empty(graph),
        perfect_matching=is_perfect_matching_graph(graph),
        forest=is_forest(graph),
        path=is_path(graph),
        cubic=is_cubic(graph),
        bisubquartic=is_bisubquartic(graph),
        complete_bipartite=(
            (tuple(cb[0]), tuple(cb[1])) if cb is not None else None
        ),
        complete_bipartite_free=(
            (tuple(cbf[0]), tuple(cbf[1]), tuple(cbf[2]))
            if cbf is not None
            else None
        ),
        graph_family=getattr(type(graph), "family", "general"),
        conflict_class=classify_conflict_graph(graph),
        multipartite=(
            (tuple(tuple(c) for c in mp[0]), tuple(mp[1]))
            if mp is not None
            else None
        ),
        block=is_block_structure(graph),
    )
