"""Proper and inequitable 2-colorings (paper Definition 1).

An *inequitable 2-coloring* ``(V'_1, V'_2)`` is a proper 2-coloring whose
first class has maximum cardinality (maximum total weight in the weighted
case).  It is computed in ``O(|V| + |E|)`` by 2-coloring each connected
component and putting the heavier side of every component into class 1 —
orientation choices of distinct components are independent, so the greedy
per-component choice is globally optimal.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import NotBipartiteError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import connected_components
from repro.graphs.conflict import two_coloring

__all__ = [
    "proper_two_coloring",
    "inequitable_two_coloring",
    "is_proper_coloring",
]


def proper_two_coloring(graph: BipartiteGraph) -> tuple[int, ...]:
    """A canonical proper 2-coloring (0/1 per vertex).

    Within each component, the smallest-index vertex receives color 0; the
    result therefore depends only on the graph, not on the declared
    bipartition witness.
    """
    color = two_coloring(graph)
    if color is None:
        raise NotBipartiteError("graph has an odd cycle; no proper 2-coloring exists")
    return color


def inequitable_two_coloring(
    graph: BipartiteGraph,
    weights: Sequence[int] | None = None,
) -> tuple[list[int], list[int]]:
    """Inequitable 2-coloring ``(V'_1, V'_2)`` of Definition 1.

    Parameters
    ----------
    graph:
        The bipartite (incompatibility) graph.
    weights:
        Optional positive vertex weights (job processing requirements in
        Algorithm 1).  ``None`` means unit weights, i.e. maximise
        cardinality of ``V'_1``.

    Returns
    -------
    ``(V'_1, V'_2)`` as sorted vertex lists; ``V'_1`` has total weight at
    least that of ``V'_2`` and both classes are independent sets.
    Ties within a component break toward placing the side containing the
    component's smallest vertex into class 1, making output deterministic.
    """
    if weights is not None and len(weights) != graph.n:
        raise ValueError(
            f"weights has length {len(weights)}, expected {graph.n}"
        )
    base = proper_two_coloring(graph)
    class1: list[int] = []
    class2: list[int] = []
    for comp in connected_components(graph):
        side_a = [v for v in comp if base[v] == 0]  # contains comp[0]
        side_b = [v for v in comp if base[v] == 1]
        if weights is None:
            wa, wb = len(side_a), len(side_b)
        else:
            wa = sum(weights[v] for v in side_a)
            wb = sum(weights[v] for v in side_b)
        if wa >= wb:
            class1.extend(side_a)
            class2.extend(side_b)
        else:
            class1.extend(side_b)
            class2.extend(side_a)
    class1.sort()
    class2.sort()
    return class1, class2


def is_proper_coloring(graph: BipartiteGraph, colors: Sequence[int]) -> bool:
    """Whether ``colors`` assigns distinct values across every edge."""
    if len(colors) != graph.n:
        return False
    return all(colors[u] != colors[v] for u, v in graph.edges())
