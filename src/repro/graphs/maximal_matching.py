"""Maximal matchings and the smallest-maximal-matching number ``beta``.

Theorem 17 (Zito [26]) lower-bounds ``beta(G(n,n,p))`` — the size of the
*smallest* maximal matching — and the paper's Corollary 18 turns it into
the matching-size guarantee behind Algorithm 2's analysis.  This module
provides the measurement side:

* :func:`greedy_maximal_matching` — any maximal matching (size between
  ``beta`` and ``mu``), in ``O(E)``;
* :func:`small_maximal_matching` — a min-degree-first heuristic that
  targets *small* maximal matchings, i.e. an upper-bound estimator for
  ``beta``;
* :func:`minimum_maximal_matching_size` — exact ``beta`` from its
  vertex-cover form, enumerating subsets of one side (minimum maximal
  matching is NP-hard; use only on small graphs — it is the test oracle).

Every maximal matching is a valid certificate: its size is sandwiched by
``beta <= |M| <= mu``, so the heuristic and Zito's bound bracket the true
value from both sides in the experiment tables.
"""

from __future__ import annotations

from typing import Sequence

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.matching import maximum_matching_size

__all__ = [
    "is_maximal_matching",
    "greedy_maximal_matching",
    "small_maximal_matching",
    "matching_size",
    "minimum_maximal_matching_size",
]


def is_maximal_matching(graph: BipartiteGraph, mate: Sequence[int]) -> bool:
    """Whether ``mate`` encodes a matching no edge can extend.

    ``mate[v]`` is ``v``'s partner or ``-1``; symmetry is required.
    """
    n = graph.n
    if len(mate) != n:
        return False
    for v in range(n):
        w = mate[v]
        if w != -1 and (not 0 <= w < n or mate[w] != v or not graph.has_edge(v, w)):
            return False
    for u, v in graph.edges():
        if mate[u] == -1 and mate[v] == -1:
            return False  # extendable: not maximal
    return True


def greedy_maximal_matching(
    graph: BipartiteGraph, order: Sequence[tuple[int, int]] | None = None
) -> list[int]:
    """A maximal matching built by scanning edges in ``order``.

    The default order is the canonical edge iteration; any order yields a
    maximal (not necessarily maximum or minimum) matching.
    """
    mate = [-1] * graph.n
    edges = graph.edges() if order is None else order
    for u, v in edges:
        if mate[u] == -1 and mate[v] == -1:
            mate[u] = v
            mate[v] = u
    return mate


def small_maximal_matching(graph: BipartiteGraph) -> list[int]:
    """Heuristically small maximal matching (upper bound on ``beta``).

    Greedy max-coverage: repeatedly match the edge whose endpoints have
    the largest combined *alive* degree (degree among uncovered
    vertices).  Each matched edge then dominates as many still-open
    edges as possible, so few edges are needed before every edge has a
    covered endpoint — the quantity ``beta`` measures.  (The opposite
    order — saturating low-degree vertices first — tends to produce
    near-*maximum* matchings instead.)
    """
    n = graph.n
    mate = [-1] * n
    alive_deg = [graph.degree(v) for v in range(n)]
    covered = [False] * n

    def cover(v: int) -> None:
        covered[v] = True
        for w in graph.neighbors(v):
            alive_deg[w] -= 1

    open_edges = set(graph.edges())
    while open_edges:
        u, v = max(
            open_edges,
            key=lambda e: (alive_deg[e[0]] + alive_deg[e[1]], -e[0], -e[1]),
        )
        mate[u], mate[v] = v, u
        cover(u)
        cover(v)
        open_edges = {
            (a, b) for a, b in open_edges if not covered[a] and not covered[b]
        }
    return mate


def matching_size(mate: Sequence[int]) -> int:
    """Number of edges in a mate-encoded matching."""
    return sum(1 for v, w in enumerate(mate) if w > v)


def minimum_maximal_matching_size(graph: BipartiteGraph) -> int:
    """Exact ``beta(G)``, exponential in one side (small graphs only).

    ``beta`` is also the size of a minimum edge dominating set (Yannakakis
    and Gavril, 1980).  The endpoints of an edge dominating set form a
    vertex cover ``C``; conversely a maximum matching of ``G[C]`` plus one
    edge per vertex of ``C`` it leaves exposed dominates every edge.  So
    ``beta`` is the minimum of ``|C| - nu(G[C])`` over vertex covers ``C``.
    Adding a vertex to ``C`` never lowers that value, so the minimum is
    reached at ``C = X | N(L' \\ X)`` for some ``X`` within ``L'``, the
    non-isolated vertices of the side with fewer of them: ``2**|L'|``
    Hopcroft–Karp calls on small induced subgraphs.
    """
    side = graph.side
    sides: tuple[list[int], list[int]] = ([], [])
    for v in range(graph.n):
        if graph.degree(v):
            sides[side[v]].append(v)
    small = min(sides, key=len)
    best = graph.n
    for mask in range(1 << len(small)):
        cover: set[int] = set()
        for k, v in enumerate(small):
            if mask >> k & 1:
                cover.add(v)
            else:
                cover |= graph.neighbors(v)
        nu = maximum_matching_size(graph.induced_subgraph(cover)[0])
        best = min(best, len(cover) - nu)
    return best
