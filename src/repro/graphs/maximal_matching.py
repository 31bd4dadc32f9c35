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
* :func:`minimum_maximal_matching_size` — exact ``beta`` by
  branch-and-bound (minimum maximal matching is NP-hard; use only on
  small graphs — it is the test oracle).

Every maximal matching is a valid certificate: its size is sandwiched by
``beta <= |M| <= mu``, so the heuristic and Zito's bound bracket the true
value from both sides in the experiment tables.
"""

from __future__ import annotations

from typing import Sequence

from repro.graphs.bipartite import BipartiteGraph

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
    """Exact ``beta(G)`` by branch-and-bound (small graphs only).

    Branches on the lowest-indexed vertex that still has an uncovered
    neighbour: either one of its incident edges joins the matching, or
    the vertex stays exposed — in which case *all* its alive neighbours
    must eventually be covered by other edges (enforced lazily by
    maximality checking at the leaves).  A node is pruned when its size
    plus ``ceil(|A| / 2)``, for a greedy matching ``A`` of the edges
    still undominated, cannot beat the incumbent.
    """
    edges = list(graph.edges())
    n = graph.n
    # seed the incumbent with the better of the two heuristics
    best = [
        min(
            matching_size(greedy_maximal_matching(graph)),
            matching_size(small_maximal_matching(graph)),
        )
    ]
    covered = [False] * n

    def alive_edges() -> list[tuple[int, int]]:
        return [(u, v) for u, v in edges if not covered[u] and not covered[v]]

    def recurse(size: int) -> None:
        if size >= best[0]:
            return  # cannot improve
        alive = alive_edges()
        if not alive:
            best[0] = min(best[0], size)
            return
        # lower bound: the edges of a greedy matching A of the alive edges
        # have pairwise distinct endpoints, each needs one of its own
        # covered by a new matching edge, and a new edge covers two
        # vertices, so at least ceil(|A| / 2) more edges are needed
        hit: set[int] = set()
        for a, b in alive:
            if a not in hit and b not in hit:
                hit.update((a, b))
        if size + (len(hit) // 2 + 1) // 2 >= best[0]:
            return
        u, v = alive[0]
        # every maximal matching must cover u or v; branch on the edges
        # incident to u, then on covering u "from the other side"
        for w in sorted(graph.neighbors(u)):
            if covered[w]:
                continue
            covered[u] = covered[w] = True
            recurse(size + 1)
            covered[u] = covered[w] = False
        # u stays exposed: every alive neighbour of u must be matched
        # using one of *its* other edges; branch on covering v via v's
        # incident edges excluding u
        for w in sorted(graph.neighbors(v)):
            if covered[w] or w == u:
                continue
            covered[v] = covered[w] = True
            recurse(size + 1)
            covered[v] = covered[w] = False

    recurse(0)
    return best[0]
