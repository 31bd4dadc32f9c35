"""Minimum-weight vertex covers in bipartite graphs.

:func:`min_weight_vertex_cover` computes the weighted cover via a minimum
s-t cut (König–Egerváry), the engine behind the maximum-*weight*
independent set that step 2 of Algorithm 1 requires.  Its max flow (a
greedy pass, then FIFO push–relabel with global relabelling) is written
for that one network and runs on the graph's own adjacency and its
``side`` witness, so any 2-colorable
:class:`~repro.graphs.conflict.ConflictGraph` works; the tests compare
it against a generic Dinic max flow.  The cardinality version is the
unit-weight case (König: its size is the maximum matching size).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from repro.graphs.conflict import ConflictGraph

__all__ = ["min_weight_vertex_cover", "is_vertex_cover"]


def min_weight_vertex_cover(
    graph: ConflictGraph,
    weights: Sequence[int],
    vertices: Iterable[int] | None = None,
) -> set[int]:
    """A minimum-weight vertex cover of the subgraph induced by ``vertices``.

    ``vertices`` defaults to the whole graph; ``weights`` is indexed by
    vertex id, and the weights of the chosen vertices must be positive
    integers (of any size).

    Network (König–Egerváry): ``s -> l`` with capacity ``w(l)`` for left
    vertices, ``r -> t`` with capacity ``w(r)`` for right vertices, and an
    uncapacitated arc ``l -> r`` along each edge, so a minimum cut severs
    weight arcs only.  The flow keeps the residual capacity of each
    ``r -> t`` arc, the excess of each vertex and the flow of each edge per
    right vertex.

    A greedy pass, left vertices by degree, sends each one's whole weight
    to the first neighbour with room for all of it, and splits it over
    its neighbours only when none has.  A FIFO push–relabel finish moves
    what is left (see :func:`_global_relabel`) until no excess can reach
    ``t``.  Sending each excess back the way it came would then leave a
    maximum flow.  The cover is ``(L \\ S) | (R & S)`` for ``S`` the
    vertices reachable from ``s`` in that flow's residual graph, which
    are the vertices an excess reaches now.  ``S`` is the source side of
    the unique minimal minimum cut: every maximum flow saturates every
    arc leaving it and carries nothing into it, so the same vertices are
    reachable from ``s`` whichever maximum flow is found, and the cover
    does not depend on the order of any pass.  (The vertices that cannot
    reach ``t`` in the preflow are the sink side of the other extreme
    minimum cut, whose cover differs.)
    """
    n = graph.n
    if len(weights) != n:
        raise ValueError(f"weights has length {len(weights)}, expected {n}")
    if vertices is None:
        in_play = bytearray(b"\x01") * n
    else:
        in_play = bytearray(n)
        for v in vertices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for n={n}")
            in_play[v] = 1
    side = graph.side
    degree = list(map(len, map(graph.neighbors, range(n))))
    # cap[r]: residual capacity of r -> t; ex[v]: excess at v
    cap = [0] * n
    ex = [0] * n
    # nbrs[l]: the neighbours of left vertex l in the subgraph, by degree
    nbrs: dict[int, list[int]] = {}
    rights: list[int] = []
    for v in range(n):
        if not in_play[v]:
            continue
        w = weights[v]
        if w <= 0:
            raise ValueError("vertex weights must be positive")
        if side[v]:
            cap[v] = w
            rights.append(v)
        else:
            ex[v] = w
            adj = [r for r in graph.neighbors(v) if in_play[r]]
            if adj:
                adj.sort(key=degree.__getitem__)
                nbrs[v] = adj
    # flow[r][l]: flow on edge (l, r); only positive entries are kept, so
    # the keys of flow[r] are the residual arcs r -> l
    flow: dict[int, dict[int, int]] = {r: {} for r in rights}

    # the preflow saturates every s -> l; the greedy pass routes what it can
    # on to t and leaves the rest as the left vertices' excess
    for l in sorted(nbrs, key=lambda v: len(nbrs[v])):
        rest = ex[l]
        # the whole weight to the first neighbour with room for all of it,
        # else split over the neighbours in order
        targets: Sequence[int] = nbrs[l]
        for r in targets:
            if cap[r] >= rest:
                targets = (r,)
                break
        for r in targets:
            c = cap[r]
            if c >= rest:
                cap[r] = c - rest
                flow[r][l] = rest
                rest = 0
                break
            if c:
                cap[r] = 0
                flow[r][l] = c
                rest -= c
        ex[l] = rest

    # FIFO: the vertices with excess, each once
    queue = deque(l for l in nbrs if ex[l])
    if queue:
        # only what an excess can reach takes part, and a push never
        # reaches further: the one arc it can add points back along it
        region = bytearray(n)
        stack = list(queue)
        for l in stack:
            region[l] = 1
        reach: list[int] = []
        while stack:
            for r in nbrs[stack.pop()]:
                if not region[r]:
                    region[r] = 1
                    reach.append(r)
                    for l in flow[r]:
                        if not region[l]:
                            region[l] = 1
                            stack.append(l)
        # labels never exceed n on a vertex that can reach t: gone marks
        # the ones that cannot, and they stay so (nothing pushes into them)
        gone = n + 1
        dist = _global_relabel(graph, region, nbrs, reach, cap, flow)
        relabels = 0
        while queue:
            v = queue.popleft()
            d = dist[v]
            if d >= gone:
                continue
            e = ex[v]
            if side[v]:
                # a right vertex: on to t first, then back along its edges
                fv = flow[v]
                while True:
                    if d == 1:
                        c = cap[v]
                        if c >= e:
                            cap[v] = c - e
                            e = 0
                            break
                        cap[v] = 0
                        e -= c
                    for l in [l for l in fv if dist[l] == d - 1]:
                        f = fv[l]
                        if f > e:
                            fv[l] = f - e
                            f = e
                        else:
                            del fv[l]
                        if not ex[l]:
                            queue.append(l)
                        ex[l] += f
                        e -= f
                        if not e:
                            break
                    if not e:
                        break
                    d = min(map(dist.__getitem__, fv)) + 1
                    if d >= gone:
                        d = gone
                        break
                    relabels += 1
                dist[v] = d
                ex[v] = e
            else:
                # a left vertex: its whole excess along one admissible edge
                adj = nbrs[v]
                for r in adj:
                    if dist[r] == d - 1:
                        break
                else:
                    r = min(adj, key=dist.__getitem__)
                    d = dist[r] + 1
                    if d >= gone:
                        dist[v] = gone
                        continue
                    dist[v] = d
                    relabels += 1
                fr = flow[r]
                fr[v] = fr.get(v, 0) + e
                ex[v] = 0
                if not ex[r]:
                    queue.append(r)
                ex[r] += e
            if relabels > n >> 3:
                dist = _global_relabel(graph, region, nbrs, reach, cap, flow)
                relabels = 0

    # S, read off the preflow: once each excess went back the way it came,
    # s would reach exactly what an excess reaches now.  Each left vertex
    # that takes flow back gains an arc from s, and each arc r -> l that
    # the return empties leads to one of them
    seen = bytearray(n)
    stack = [l for l in nbrs if ex[l]]
    stack += [r for r in rights if ex[r]]
    for v in stack:
        seen[v] = 1
    while stack:
        v = stack.pop()
        for w in flow[v] if side[v] else nbrs[v]:
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
    cover = {l for l in nbrs if not seen[l]}
    cover.update(r for r in rights if seen[r])
    return cover


def _global_relabel(
    graph: ConflictGraph,
    region: bytearray,
    nbrs: dict[int, list[int]],
    rights: list[int],
    cap: list[int],
    flow: dict[int, dict[int, int]],
) -> list[int]:
    """Each vertex's distance to ``t`` in the residual graph, for the
    vertices of ``region`` (whose right vertices are ``rights``); ``n + 1``
    for the ones that cannot reach it and for every vertex outside.

    ``region`` holds what the excess can reach, so every residual arc
    from it stays inside it, and so does every path to ``t``.  One
    breadth-first search from ``t`` along reversed residual arcs:
    ``r -> t`` while ``r`` has capacity left, ``l -> r`` along every
    edge, ``r -> l`` while the edge carries flow.  Push–relabel moves
    excess only from a vertex at distance label ``d`` to one at
    ``d - 1``, and relabels a vertex with no such arc to one more than
    its lowest neighbour's label.  Those labels stay lower bounds on the
    distance; the search makes them exact again.  It runs at the start
    and after every ``n // 8`` relabels.
    """
    n = graph.n
    gone = n + 1
    dist = [gone] * n
    level = [r for r in rights if cap[r]]
    for r in level:
        dist[r] = 1
    d = 1
    while level:
        lefts: list[int] = []
        for r in level:
            for l in graph.neighbors(r):
                if dist[l] == gone and region[l]:
                    dist[l] = d + 1
                    lefts.append(l)
        d += 2
        level = []
        for l in lefts:
            for r in nbrs[l]:
                if dist[r] == gone and l in flow[r]:
                    dist[r] = d
                    level.append(r)
    return dist


def is_vertex_cover(graph: ConflictGraph, cover: Iterable[int]) -> bool:
    """Whether every edge has at least one endpoint in ``cover``."""
    cset = set(cover)
    return all(u in cset or v in cset for u, v in graph.edges())
