"""Maximum matching in bipartite graphs (Hopcroft–Karp).

Matching size ``mu(G)`` drives the random-graph analysis of Section 4.1:
by König's theorem ``alpha(G) = n - mu(G)`` for bipartite ``G`` on ``n``
vertices, which Lemma 14 and Theorem 19 use to lower-bound the work that
must leave machine ``M_1``.

Runs in ``O(E sqrt(V))`` on plain integers:

* **adjacency reuse** — each left vertex's neighbourhood is materialised
  once per call as a plain list, so every BFS/DFS phase walks lists
  instead of re-fetching frozensets (int-set iteration order is stable
  for a fixed graph, so the mate array stays deterministic);
* **greedy seeding** — a maximal matching is built during the adjacency
  pass, so the phase loop only has to augment the (typically small)
  remainder instead of growing the matching from empty;
* **integer levels** — "unreached" is the sentinel ``n + 1``, so level
  comparisons and resets never leave int space;
* **iterative DFS** — the augmenting search keeps an explicit
  path/iterator stack in plain locals: no recursion, no recursion-limit
  juggling, no per-frame Python call overhead.
"""
from __future__ import annotations

from collections import deque

from repro.graphs.conflict import ConflictGraph

__all__ = ["hopcroft_karp", "maximum_matching_size", "is_matching"]


def hopcroft_karp(graph: ConflictGraph) -> list[int]:
    """Maximum matching as a mate array.

    Returns ``mate`` with ``mate[v]`` the partner of ``v`` or ``-1`` when
    ``v`` is exposed.  The bipartition witness ``graph.side`` provides
    the two sides; left = side 0.
    """
    n = graph.n
    unreached = n + 1  # larger than any real BFS level
    left = graph.vertices_on_side(0)
    adj: list[list[int]] = [[] for _ in range(n)]
    mate = [-1] * n
    # one pass builds the reusable adjacency AND seeds a maximal matching
    for u in left:
        nbrs = list(graph.neighbors(u))
        adj[u] = nbrs
        for v in nbrs:
            if mate[v] == -1:
                mate[u] = v
                mate[v] = u
                break
    dist = [unreached] * n

    # per-root DFS state, reused across the whole call (cleared on use)
    path_u: list[int] = []
    path_v: list[int] = []
    iters: list = []
    while True:
        # BFS phase: level the alternating-path graph from free lefts
        q: deque[int] = deque()
        for u in left:
            if mate[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = unreached
        found = False
        while q:
            u = q.popleft()
            du1 = dist[u] + 1
            for v in adj[u]:
                w = mate[v]
                if w == -1:
                    found = True
                elif dist[w] == unreached:
                    dist[w] = du1
                    q.append(w)
        if not found:
            return mate
        # DFS phase: vertex-disjoint augmenting paths along the levels
        for root in left:
            if mate[root] != -1:
                continue
            path_u.append(root)
            iters.append(iter(adj[root]))
            while path_u:
                u = path_u[-1]
                du1 = dist[u] + 1
                for v in iters[-1]:
                    w = mate[v]
                    if w == -1:
                        # free right vertex: flip the augmenting path
                        path_v.append(v)
                        for k in range(len(path_u)):
                            pu = path_u[k]
                            pv = path_v[k]
                            mate[pu] = pv
                            mate[pv] = pu
                        path_u.clear()
                        path_v.clear()
                        iters.clear()
                        break
                    if dist[w] == du1:
                        # descend; resuming this level later continues
                        # exactly where the saved iterator left off
                        path_v.append(v)
                        path_u.append(w)
                        iters.append(iter(adj[w]))
                        break
                else:
                    # exhausted: u is off any augmenting path this phase
                    dist[u] = unreached
                    path_u.pop()
                    iters.pop()
                    if path_v:
                        path_v.pop()


def maximum_matching_size(graph: ConflictGraph) -> int:
    """``mu(G)``: the number of edges in a maximum matching."""
    mate = hopcroft_karp(graph)
    return sum(1 for v in range(graph.n) if mate[v] != -1) // 2


def is_matching(graph: ConflictGraph, mate: list[int]) -> bool:
    """Validate a mate array: symmetric, uses only real edges."""
    if len(mate) != graph.n:
        return False
    for v in range(graph.n):
        w = mate[v]
        if w == -1:
            continue
        if not (0 <= w < graph.n) or mate[w] != v or not graph.has_edge(v, w):
            return False
    return True
