"""Minimum vertex covers in bipartite graphs.

Two constructions:

* :func:`konig_vertex_cover` — the cardinality version from a maximum
  matching (König's theorem), used to compute independence numbers for the
  random-graph experiments of Section 4.1.
* :func:`min_weight_vertex_cover` — the weighted version via a minimum
  s-t cut (König–Egerváry), the engine behind the maximum-*weight*
  independent set that step 2 of Algorithm 1 requires.  Its max-flow is
  written for that one network and runs on the graph's own adjacency;
  :class:`~repro.graphs.flow.FlowNetwork` is the generic reference the
  tests compare it against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.matching import hopcroft_karp

__all__ = ["konig_vertex_cover", "min_weight_vertex_cover", "is_vertex_cover"]


def konig_vertex_cover(graph: BipartiteGraph) -> set[int]:
    """A minimum-cardinality vertex cover (König construction).

    Starting from the exposed left vertices of a maximum matching, walk
    alternating paths (unmatched edge left->right, matched edge
    right->left); with ``Z`` the set of visited vertices the cover is
    ``(L \\ Z) | (R & Z)`` and its size equals the matching size.
    """
    mate = hopcroft_karp(graph)
    left = graph.vertices_on_side(0)
    in_z = [False] * graph.n
    stack = [u for u in left if mate[u] == -1]
    for u in stack:
        in_z[u] = True
    while stack:
        u = stack.pop()
        if graph.side[u] == 0:  # move along non-matching edges
            for v in graph.neighbors(u):
                if v != mate[u] and not in_z[v]:
                    in_z[v] = True
                    stack.append(v)
        else:  # move along the matching edge
            w = mate[u]
            if w != -1 and not in_z[w]:
                in_z[w] = True
                stack.append(w)
    cover = {u for u in range(graph.n) if graph.side[u] == 0 and not in_z[u]}
    cover |= {u for u in range(graph.n) if graph.side[u] == 1 and in_z[u]}
    return cover


def min_weight_vertex_cover(
    graph: BipartiteGraph,
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
    weight arcs only.  The flow keeps the residual capacity of each weight
    arc per vertex and the flow of each edge per right vertex.  A greedy
    pass routes most of the flow along ``s -> l -> r -> t``, lowest degrees
    first; Dinic phases with an iterative DFS finish it.  The cover is
    ``(L \\ S) | (R & S)`` for ``S`` the vertices reachable from ``s`` in
    the residual graph.  ``S`` is the source side of the unique minimal
    minimum cut, the same for every maximum flow, so the cover does not
    depend on which maximum flow is found.
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
    # cap[l]: residual capacity of s -> l; cap[r]: residual of r -> t
    cap = [0] * n
    # nbrs[l]: the neighbours of left vertex l in the subgraph
    nbrs: dict[int, list[int]] = {}
    rights: list[int] = []
    for v in range(n):
        if not in_play[v]:
            continue
        w = weights[v]
        if w <= 0:
            raise ValueError("vertex weights must be positive")
        cap[v] = w
        if side[v]:
            rights.append(v)
        else:
            # by degree, ties by id: the greedy pass below then sweeps
            # the same way along paths, which keeps the augmenting paths
            # it leaves short; set order can leave paths as long as the
            # graph, one Dinic phase each (a path with weights 1..n)
            adj = [r for r in graph.neighbors(v) if in_play[r]]
            if adj:
                adj.sort()
                adj.sort(key=graph.degree)
                nbrs[v] = adj
    # flow[r][l]: flow on edge (l, r); only positive entries are kept, so
    # the keys of flow[r] are the residual arcs r -> l
    flow: dict[int, dict[int, int]] = {r: {} for r in rights}

    for l in sorted(nbrs, key=lambda v: len(nbrs[v])):
        rest = cap[l]
        for r in nbrs[l]:
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
        cap[l] = rest

    while True:
        seen, layers = _layers(nbrs, cap, flow, n)
        if not layers:
            break
        _blocking_flow(nbrs, cap, flow, layers)

    cover = {l for l in nbrs if not seen[l]}
    cover.update(r for r in rights if seen[r])
    return cover


def _layers(
    nbrs: dict[int, list[int]],
    cap: list[int],
    flow: dict[int, dict[int, int]],
    n: int,
) -> tuple[bytearray, list[list[int]]]:
    """BFS of the residual graph from ``s``, one list per level.

    Layer ``k`` holds the vertices at distance ``k + 1`` from ``s``: left
    vertices at even ``k``, right ones at odd ``k``.  The search stops at
    the first right layer holding an arc to ``t`` with residual capacity,
    and returns no layers when there is none; ``seen`` then marks every
    vertex reachable from ``s`` (isolated left vertices aside, which are
    reachable and never in the cover).
    """
    seen = bytearray(n)
    layer = [l for l in nbrs if cap[l]]
    for l in layer:
        seen[l] = 1
    layers: list[list[int]] = []
    while layer:
        layers.append(layer)
        rights: list[int] = []
        for l in layer:
            for r in nbrs[l]:
                if not seen[r]:
                    seen[r] = 1
                    rights.append(r)
        layers.append(rights)
        for r in rights:
            if cap[r]:
                return seen, layers
        layer = []
        for r in rights:
            for l in flow[r]:
                if not seen[l]:
                    seen[l] = 1
                    layer.append(l)
    return seen, []


def _blocking_flow(
    nbrs: dict[int, list[int]],
    cap: list[int],
    flow: dict[int, dict[int, int]],
    layers: list[list[int]],
) -> None:
    """Saturate every shortest ``s``-``t`` path of one Dinic phase.

    Paths alternate ``s -> l0 -> r0 -> l1 -> ... -> rk -> t``; the arcs
    ``r_i -> l_{i+1}`` cancel flow on edge ``(l_{i+1}, r_i)``.  A pass
    from the last layer back keeps, for each vertex, its arcs into the
    next layer whose head can still reach ``t``, so the DFS enters no
    dead end the phase did not create.  A vertex leaves ``arcs`` once it
    has no way on; an arc ``r -> l`` also goes once its flow is cancelled.
    Arcs created during the phase point one layer back and never enter.
    """
    # every head in ``arcs`` sits one layer deeper: BFS puts each
    # residual arc's head at most one layer on, and the pass goes deepest
    # first
    arcs: dict[int, list[int]] = {r: [] for r in layers[-1] if cap[r]}
    for k in range(len(layers) - 2, -1, -1):
        for v in layers[k]:
            todo = [w for w in (flow[v] if k % 2 else nbrs[v]) if w in arcs]
            if todo:
                arcs[v] = todo
    last = len(layers)
    for root in [l for l in layers[0] if l in arcs]:
        path = [root]
        while path:
            u = path[-1]
            todo = arcs[u]
            if len(path) == last:
                if cap[u]:
                    _augment(path, cap, flow)
                    path = [root] if cap[root] else []
                    continue
            elif len(path) % 2:
                while todo and todo[-1] not in arcs:
                    todo.pop()
            else:
                fu = flow[u]
                while todo and (todo[-1] not in arcs or todo[-1] not in fu):
                    todo.pop()
            if todo:
                path.append(todo[-1])
                continue
            del arcs[u]
            path.pop()


def _augment(
    path: list[int], cap: list[int], flow: dict[int, dict[int, int]]
) -> None:
    """Push the bottleneck along ``s -> path[0] -> ... -> path[-1] -> t``."""
    amount = min(cap[path[0]], cap[path[-1]])
    for k in range(1, len(path) - 1, 2):
        amount = min(amount, flow[path[k]][path[k + 1]])
    cap[path[0]] -= amount
    cap[path[-1]] -= amount
    for k in range(0, len(path), 2):
        f = flow[path[k + 1]]
        f[path[k]] = f.get(path[k], 0) + amount
    for k in range(1, len(path) - 1, 2):
        f = flow[path[k]]
        left = f[path[k + 1]] - amount
        if left:
            f[path[k + 1]] = left
        else:
            del f[path[k + 1]]


def is_vertex_cover(graph: BipartiteGraph, cover: Iterable[int]) -> bool:
    """Whether every edge has at least one endpoint in ``cover``."""
    cset = set(cover)
    return all(u in cset or v in cset for u, v in graph.edges())
