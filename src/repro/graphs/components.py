"""Connected-component decomposition.

Algorithms 3-5 of the paper operate *per connected component* of the
incompatibility graph: the R2 reduction and Theorem 4's split walk the
vertex lists returned here, as do structure recognition and the exact
oracle.  They work on any :class:`ConflictGraph` representation, and no
subgraph is built.
"""

from __future__ import annotations

from repro.graphs.conflict import ConflictGraph

__all__ = ["connected_components"]


def connected_components(graph: ConflictGraph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted ascending.

    Components are ordered by their smallest vertex, so the decomposition is
    deterministic.  Isolated vertices form singleton components.
    """
    seen = [False] * graph.n
    components: list[list[int]] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        comp = [start]
        while stack:
            u = stack.pop()
            for v in graph.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comp.sort()
        components.append(comp)
    return components
