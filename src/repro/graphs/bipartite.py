"""The :class:`BipartiteGraph` container.

Vertices are integers ``0..n-1``.  Every instance stores its adjacency
and an explicit bipartition witness (``side[v] in {0, 1}``) validated at
construction.  The bipartite algorithms need only adjacency and
:attr:`~repro.graphs.conflict.ConflictGraph.side`, which every
2-colorable :class:`~repro.graphs.conflict.ConflictGraph` has, so this
class adds no algorithmic surface: it keeps the stored-adjacency
accessors and the declared witness, and inherits the rest.  Graphs are
immutable after construction; structural edits go through the
functional helpers (:meth:`induced_subgraph`, :meth:`disjoint_union`,
:meth:`with_edges`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.exceptions import InvalidInstanceError, NotBipartiteError
from repro.graphs.conflict import ConflictGraph

__all__ = ["BipartiteGraph"]


class BipartiteGraph(ConflictGraph):
    """An undirected bipartite conflict graph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs.  Self loops and out-of-range endpoints
        are rejected; parallel edges collapse.
    side:
        Optional bipartition witness: ``side[v]`` is 0 or 1.  When omitted
        the witness is the canonical 2-coloring every
        :class:`~repro.graphs.conflict.ConflictGraph` derives
        (:exc:`NotBipartiteError` if none exists).  When given, every
        edge must cross sides.
    """

    __slots__ = ("_n", "_side", "_adj", "_edge_count")

    family = "bipartite"

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        side: Sequence[int] | None = None,
    ) -> None:
        if n < 0:
            raise InvalidInstanceError(f"vertex count must be non-negative, got {n}")
        self._n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInstanceError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InvalidInstanceError(f"self loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self._edge_count = sum(len(s) for s in self._adj) // 2
        if side is None:
            self._side = super().side
        else:
            side_t = tuple(int(s) for s in side)
            if len(side_t) != n:
                raise InvalidInstanceError(
                    f"side witness has length {len(side_t)}, expected {n}"
                )
            if any(s not in (0, 1) for s in side_t):
                raise InvalidInstanceError("side entries must be 0 or 1")
            for u in range(n):
                for v in self._adj[u]:
                    if side_t[u] == side_t[v]:
                        raise NotBipartiteError(
                            f"edge ({u}, {v}) does not cross the declared bipartition"
                        )
            self._side = side_t

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_parts(
        cls, left: int, right: int, edges: Iterable[tuple[int, int]] = ()
    ) -> "BipartiteGraph":
        """Build a graph with parts ``{0..left-1}`` and ``{left..left+right-1}``.

        ``edges`` are given as ``(i, j)`` with ``i`` indexing the left part
        and ``j`` the right part (both 0-based within their part), matching
        the `G(n, n, p)` convention of Section 4.1.
        """
        n = left + right
        side = [0] * left + [1] * right
        remapped = [(i, left + j) for i, j in edges]
        for i, j in remapped:
            if not (0 <= i < left and left <= j < n):
                raise InvalidInstanceError(f"part-indexed edge out of range: ({i - 0}, {j - left})")
        return cls(n, remapped, side=side)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return self._edge_count

    @property
    def side(self) -> tuple[int, ...]:
        """The declared bipartition witness (0/1 per vertex)."""
        return self._side

    def neighbors(self, v: int) -> frozenset[int]:
        """Neighbour set of ``v``."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return len(self._adj[v])

    def parts(self) -> tuple[tuple[int, ...], ...]:
        """The two bipartition sides as vertex classes (witness order)."""
        return (
            tuple(self.vertices_on_side(0)),
            tuple(self.vertices_on_side(1)),
        )

    # ------------------------------------------------------------------ #
    # structural operations (all functional — graphs are immutable)
    # ------------------------------------------------------------------ #

    def induced_subgraph(
        self, vertices: Iterable[int]
    ) -> tuple["BipartiteGraph", list[int]]:
        """Subgraph induced by ``vertices``.

        Returns ``(subgraph, original_ids)`` where ``original_ids[i]`` is the
        vertex of ``self`` that became vertex ``i`` of the subgraph.  The
        bipartition witness is inherited.
        """
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u in index and v in index
        ]
        side = [self._side[v] for v in keep]
        return BipartiteGraph(len(keep), edges, side=side), keep

    def disjoint_union(self, other: "BipartiteGraph") -> "BipartiteGraph":
        """Disjoint union; ``other``'s vertices are shifted by ``self.n``."""
        off = self._n
        edges = list(self.edges()) + [(u + off, v + off) for u, v in other.edges()]
        side = list(self._side) + list(other._side)
        return BipartiteGraph(self._n + other._n, edges, side=side)

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        """A copy with additional edges (bipartition witness recomputed)."""
        edges = list(self.edges()) + list(extra)
        return BipartiteGraph(self._n, edges)

    def relabeled(self, mapping: Sequence[int]) -> "BipartiteGraph":
        """Apply the permutation ``mapping`` (``new_id = mapping[old_id]``)."""
        if sorted(mapping) != list(range(self._n)):
            raise InvalidInstanceError("mapping must be a permutation of the vertices")
        edges = [(mapping[u], mapping[v]) for u, v in self.edges()]
        side = [0] * self._n
        for old, new in enumerate(mapping):
            side[new] = self._side[old]
        return BipartiteGraph(self._n, edges, side=side)

    # ------------------------------------------------------------------ #
    # interop
    # ------------------------------------------------------------------ #

    def to_networkx(self):
        """Export to :class:`networkx.Graph` (test/diagnostic use only)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        for v in range(self._n):
            g.nodes[v]["bipartite"] = self._side[v]
        g.add_edges_from(self.edges())
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BipartiteGraph(n={self._n}, edges={self._edge_count})"
