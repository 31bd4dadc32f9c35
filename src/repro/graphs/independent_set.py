"""Maximum(-weight) independent sets in bipartite graphs.

Step 2 of Algorithm 1 needs *"an independent set of the highest weight
containing all jobs of processing requirement at least sqrt(sum p_j)"*.
That decomposes into:

1. check that the heavy jobs themselves are independent (else no such set
   exists and Algorithm 1 falls back to the two-machine schedule ``S1``);
2. mask out the closed neighbourhood of the heavy jobs;
3. take a maximum-weight independent set of the remainder (complement of a
   minimum-weight vertex cover) and union it with the heavy jobs.

Steps 2 and 3 run on the graph itself: the vertex cover takes the list of
unmasked vertices, and no subgraph is built.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.graphs.conflict import ConflictGraph
from repro.graphs.matching import maximum_matching_size
from repro.graphs.vertex_cover import min_weight_vertex_cover

__all__ = [
    "max_weight_independent_set",
    "max_weight_independent_set_containing",
    "independence_number",
]


def max_weight_independent_set(
    graph: ConflictGraph, weights: Sequence[int]
) -> set[int]:
    """Maximum-weight independent set (positive integer weights).

    Complement of a minimum-weight vertex cover (König–Egerváry); exact.
    """
    cover = min_weight_vertex_cover(graph, weights)
    return set(range(graph.n)) - cover


def max_weight_independent_set_containing(
    graph: ConflictGraph,
    weights: Sequence[int],
    required: Iterable[int],
) -> set[int] | None:
    """Max-weight independent set containing all of ``required``, or ``None``.

    Returns ``None`` exactly when ``required`` is not itself independent
    (the paper's "if such a set exists" condition).  Otherwise the returned
    set has maximum total weight among independent sets including
    ``required``: ``required`` plus the complement of a minimum-weight
    vertex cover of the graph with ``N[required]`` masked out.
    """
    req = set(required)
    if not graph.is_independent_set(req):
        return None
    banned = graph.closed_neighborhood(req)
    free = [v for v in range(graph.n) if v not in banned]
    cover = min_weight_vertex_cover(graph, weights, free)
    return req.union(v for v in free if v not in cover)


def independence_number(graph: ConflictGraph) -> int:
    """``alpha(G) = n - mu(G)`` for bipartite graphs (König/Gallai)."""
    return graph.n - maximum_matching_size(graph)
