"""First-class conflict graphs: the abstraction every layer types against.

The paper studies ``Q|G = bipartite|Cmax``, but the wider literature the
repo tracks — Pikies & Turowski's complete multipartite incompatibility
graphs (arXiv:2010.13207) and Furmańczyk et al.'s block-type conflict
graphs (arXiv:2207.05868) — needs richer families.  This module defines
the :class:`ConflictGraph` base that scheduling instances, serialization,
batch specs, and the engine registry all consume, plus two non-bipartite
implementations:

* :class:`CompleteMultipartiteGraph` — vertices split into classes; any
  two vertices from *different* classes conflict (jobs inside a class are
  mutually compatible).  ``K_{a,b}`` is the two-class special case.
* :class:`BlockGraph` — a union of cliques in which every biconnected
  component (block) is itself a clique (a "clique forest").  Block graphs
  are chordal, so greedy coloring along a maximum-cardinality-search
  order is an optimal coloring — the structural fact
  :mod:`repro.scheduling.conflict_split` exploits.

:class:`~repro.graphs.bipartite.BipartiteGraph` subclasses
:class:`ConflictGraph`; all adjacency-generic algorithms in the repo
(:func:`~repro.graphs.components.connected_components`, the greedy and
brute-force schedulers, schedule validation, certification) work on any
implementation unchanged.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Sequence

from repro.exceptions import InvalidInstanceError

__all__ = [
    "ConflictGraph",
    "CompleteMultipartiteGraph",
    "BlockGraph",
    "biconnected_components",
    "two_coloring",
]


class ConflictGraph(ABC):
    """An undirected conflict graph on vertices ``0..n-1``.

    Edges mean *incompatibility*: two adjacent jobs may never share a
    machine, i.e. every machine's job set must be an independent set.
    Implementations are immutable after construction.

    Subclasses must provide :attr:`n` and :meth:`neighbors`; everything
    else has an adjacency-generic default (override for speed where a
    representation allows it).  ``family`` names the representation class
    ("bipartite", "complete_multipartite", "block") and is what the
    serialization layer tags payloads with.
    """

    __slots__ = ()

    #: representation-family tag, overridden per subclass
    family: str = "general"

    # ------------------------------------------------------------------ #
    # required surface
    # ------------------------------------------------------------------ #

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of vertices."""

    @abstractmethod
    def neighbors(self, v: int) -> frozenset[int]:
        """Neighbour set of ``v``."""

    # ------------------------------------------------------------------ #
    # generic adjacency API
    # ------------------------------------------------------------------ #

    def conflicts(self, u: int, v: int) -> bool:
        """Whether jobs ``u`` and ``v`` may not share a machine."""
        return v in self.neighbors(u)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge (alias of :meth:`conflicts`)."""
        return self.conflicts(u, v)

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        """Maximum degree (0 for the empty graph)."""
        return max((self.degree(v) for v in range(self.n)), default=0)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return sum(self.degree(v) for v in range(self.n)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges as ordered pairs ``(u, v)`` with ``u < v``."""
        for u in range(self.n):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, v)

    def isolated_vertices(self) -> list[int]:
        """Vertices of degree zero (jobs compatible with everything)."""
        return [v for v in range(self.n) if not self.neighbors(v)]

    def parts(self) -> tuple[tuple[int, ...], ...] | None:
        """Known mutually-compatible vertex classes, or ``None``.

        For representations that carry class structure (bipartition
        sides, multipartite classes) this returns the classes as tuples
        of vertex ids; representations without inherent class metadata
        return ``None``.  Purely informational — algorithms that *need*
        class structure should recompute it structurally via
        :mod:`repro.graphs.structure`.
        """
        return None

    # ------------------------------------------------------------------ #
    # feasibility helpers shared by the scheduling layer
    # ------------------------------------------------------------------ #

    def is_independent_set(self, vertices: Iterable[int]) -> bool:
        """Whether ``vertices`` induce no edge (the machine-feasibility test)."""
        vset = set(vertices)
        for v in vset:
            if self.neighbors(v) & vset:
                return False
        return True

    def closed_neighborhood(self, vertices: Iterable[int]) -> set[int]:
        """``N[S]``: the vertices of ``S`` together with all their neighbours."""
        out = set(vertices)
        for v in list(out):
            out |= self.neighbors(v)
        return out

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConflictGraph):
            return NotImplemented
        return self.n == other.n and all(
            self.neighbors(v) == other.neighbors(v) for v in range(self.n)
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.neighbors(v) for v in range(self.n))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, edges={self.edge_count})"


def _check_vertex_range(vertices: Iterable[int], n: int, what: str) -> tuple[int, ...]:
    out = tuple(int(v) for v in vertices)
    for v in out:
        if not 0 <= v < n:
            raise InvalidInstanceError(f"{what} vertex {v} out of range for n={n}")
    return out


class CompleteMultipartiteGraph(ConflictGraph):
    """A complete multipartite conflict graph.

    Parameters
    ----------
    n:
        Number of vertices.
    parts:
        Disjoint non-empty vertex classes.  Two vertices conflict iff
        they lie in *different* classes.  Vertices in no class are
        *free* (isolated — compatible with every job), matching the
        "free jobs" of the Pikies–Turowski model.

    With two classes and no free vertices this is exactly ``K_{a,b}``;
    with one class (or none) it is edgeless.
    """

    __slots__ = ("_n", "_parts", "_class", "_class_neighbors")

    family = "complete_multipartite"

    def __init__(self, n: int, parts: Sequence[Iterable[int]]) -> None:
        if n < 0:
            raise InvalidInstanceError(f"vertex count must be non-negative, got {n}")
        self._n = int(n)
        cls = [-1] * self._n
        norm: list[tuple[int, ...]] = []
        for k, raw in enumerate(parts):
            part = _check_vertex_range(raw, self._n, f"part {k}")
            if not part:
                raise InvalidInstanceError(f"part {k} is empty")
            if len(set(part)) != len(part):
                raise InvalidInstanceError(f"part {k} repeats a vertex")
            for v in part:
                if cls[v] != -1:
                    raise InvalidInstanceError(
                        f"vertex {v} appears in parts {cls[v]} and {k}"
                    )
                cls[v] = k
            norm.append(tuple(sorted(part)))
        self._parts = tuple(norm)
        self._class = tuple(cls)
        # neighbor set shared by every vertex of class k: all classified
        # vertices outside class k.  Built lazily on first adjacency query.
        self._class_neighbors: dict[int, frozenset[int]] = {}

    @classmethod
    def from_sizes(
        cls, sizes: Sequence[int], free: int = 0
    ) -> "CompleteMultipartiteGraph":
        """Build from class sizes: classes take consecutive vertex ranges.

        ``free`` extra isolated vertices are appended after the classes.
        """
        sizes_t = tuple(int(s) for s in sizes)
        if any(s < 1 for s in sizes_t):
            raise InvalidInstanceError("part sizes must be positive")
        if int(free) < 0:
            raise InvalidInstanceError("free vertex count must be non-negative")
        n = sum(sizes_t) + int(free)
        parts: list[range] = []
        start = 0
        for s in sizes_t:
            parts.append(range(start, start + s))
            start += s
        return cls(n, parts)

    @property
    def n(self) -> int:
        return self._n

    def parts(self) -> tuple[tuple[int, ...], ...]:
        """The vertex classes (free vertices belong to none)."""
        return self._parts

    def free_vertices(self) -> list[int]:
        """Vertices in no class (isolated, compatible with every job)."""
        return [v for v in range(self._n) if self._class[v] == -1]

    def neighbors(self, v: int) -> frozenset[int]:
        k = self._class[v]
        if k == -1:
            return frozenset()
        cached = self._class_neighbors.get(k)
        if cached is None:
            cached = frozenset(
                u
                for u in range(self._n)
                if self._class[u] != -1 and self._class[u] != k
            )
            self._class_neighbors[k] = cached
        return cached

    def conflicts(self, u: int, v: int) -> bool:
        cu, cv = self._class[u], self._class[v]
        return cu != -1 and cv != -1 and cu != cv and u != v

    def degree(self, v: int) -> int:
        k = self._class[v]
        if k == -1:
            return 0
        return len(self.neighbors(v))

    def relabeled(self, mapping: Sequence[int]) -> "CompleteMultipartiteGraph":
        """Apply the permutation ``mapping`` (``new_id = mapping[old_id]``)."""
        if sorted(mapping) != list(range(self._n)):
            raise InvalidInstanceError("mapping must be a permutation of the vertices")
        parts = [[mapping[v] for v in part] for part in self._parts]
        return CompleteMultipartiteGraph(self._n, parts)

    def induced_subgraph(
        self, vertices: Iterable[int]
    ) -> tuple["CompleteMultipartiteGraph", list[int]]:
        """Subgraph induced by ``vertices`` (still complete multipartite).

        Returns ``(subgraph, original_ids)`` where ``original_ids[i]`` is
        the vertex of ``self`` that became vertex ``i`` of the subgraph;
        classes are intersected with the kept set and empty ones dropped.
        """
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        parts = [
            trimmed
            for part in self._parts
            if (trimmed := [index[v] for v in part if v in index])
        ]
        return CompleteMultipartiteGraph(len(keep), parts), keep

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ",".join(str(len(p)) for p in self._parts)
        return f"CompleteMultipartiteGraph(n={self._n}, sizes=[{sizes}])"


def biconnected_components(graph: ConflictGraph) -> list[list[int]]:
    """Vertex sets of the biconnected components (blocks), sorted.

    Iterative Hopcroft–Tarjan with an explicit edge stack.  Bridges form
    two-vertex blocks; isolated vertices form singleton blocks (so every
    vertex appears in at least one block and cut vertices in several).
    Deterministic: blocks are returned sorted by their vertex lists.
    """
    n = graph.n
    visited = [False] * n
    depth = [0] * n
    low = [0] * n
    blocks: list[list[int]] = []
    edge_stack: list[tuple[int, int]] = []

    for root in range(n):
        if visited[root]:
            continue
        if not graph.neighbors(root):
            blocks.append([root])
            visited[root] = True
            continue
        # iterative DFS frame: (vertex, parent, iterator over neighbors)
        stack = [(root, -1, iter(sorted(graph.neighbors(root))))]
        visited[root] = True
        depth[root] = low[root] = 0
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for v in it:
                if not visited[v]:
                    edge_stack.append((u, v))
                    visited[v] = True
                    depth[v] = low[v] = depth[u] + 1
                    stack.append((v, u, iter(sorted(graph.neighbors(v)))))
                    advanced = True
                    break
                if v != parent and depth[v] < depth[u]:
                    edge_stack.append((u, v))
                    low[u] = min(low[u], depth[v])
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= depth[p]:
                    # p is a cut vertex (or the root): every edge pushed
                    # since the tree edge (p, u) belongs to one block
                    comp: set[int] = set()
                    while True:
                        a, b = edge_stack.pop()
                        comp.add(a)
                        comp.add(b)
                        if (a, b) == (p, u):
                            break
                    blocks.append(sorted(comp))
    blocks.sort()
    return blocks


def two_coloring(graph: ConflictGraph) -> tuple[int, ...] | None:
    """The canonical proper 2-coloring (0/1 per vertex), or ``None``.

    Each component's smallest vertex gets color 0.  A connected bipartite
    graph has exactly one 2-coloring once one vertex's color is fixed,
    so the result depends only on adjacency, never on the representation
    or on a declared bipartition witness.  ``None`` means an odd cycle.
    """
    color = [-1] * graph.n
    for root in range(graph.n):
        if color[root] != -1:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            other = 1 - color[u]
            for v in graph.neighbors(u):
                if color[v] == -1:
                    color[v] = other
                    stack.append(v)
                elif color[v] != other:
                    return None
    return tuple(color)


class BlockGraph(ConflictGraph):
    """A block-type conflict graph: every biconnected component is a clique.

    Parameters
    ----------
    n:
        Number of vertices.
    blocks:
        Cliques, given as vertex lists.  The graph is the union of these
        cliques.  Construction *validates* the block property — if two
        declared cliques overlap in two or more vertices their union
        creates a biconnected component that is not complete, and the
        constructor raises :exc:`~repro.exceptions.InvalidInstanceError`.

    This is the "clique forest" family of Furmańczyk et al.
    (arXiv:2207.05868): trees are block graphs (every block an edge), as
    is any disjoint union of cliques.
    """

    __slots__ = ("_n", "_blocks", "_adj", "_edge_count")

    family = "block"

    def __init__(self, n: int, blocks: Sequence[Iterable[int]]) -> None:
        if n < 0:
            raise InvalidInstanceError(f"vertex count must be non-negative, got {n}")
        self._n = int(n)
        adj: list[set[int]] = [set() for _ in range(self._n)]
        norm: list[tuple[int, ...]] = []
        for k, raw in enumerate(blocks):
            clique = _check_vertex_range(raw, self._n, f"block {k}")
            if not clique:
                raise InvalidInstanceError(f"block {k} is empty")
            if len(set(clique)) != len(clique):
                raise InvalidInstanceError(f"block {k} repeats a vertex")
            cs = tuple(sorted(clique))
            for i, u in enumerate(cs):
                for v in cs[i + 1 :]:
                    adj[u].add(v)
                    adj[v].add(u)
            norm.append(cs)
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self._edge_count = sum(len(s) for s in self._adj) // 2
        self._blocks = tuple(norm)
        # validate the block property structurally: every biconnected
        # component of the union must induce a clique
        for comp in biconnected_components(self):
            need = len(comp) - 1
            comp_set = set(comp)
            for v in comp:
                if len(self._adj[v] & comp_set) < need:
                    raise InvalidInstanceError(
                        "declared cliques overlap into a non-clique biconnected "
                        f"component {comp}; a block graph's blocks may share at "
                        "most one (cut) vertex"
                    )

    @classmethod
    def chain(cls, block_sizes: Sequence[int]) -> "BlockGraph":
        """Cliques chained at shared cut vertices (a "caterpillar of cliques").

        ``chain([3, 2, 4])`` builds ``K_3`` sharing its last vertex with a
        ``K_2`` sharing *its* last vertex with a ``K_4``.
        """
        sizes = tuple(int(s) for s in block_sizes)
        if any(s < 1 for s in sizes):
            raise InvalidInstanceError("block sizes must be positive")
        blocks: list[list[int]] = []
        nxt = 0
        last = None
        for s in sizes:
            verts = ([] if last is None else [last]) + list(
                range(nxt, nxt + (s if last is None else s - 1))
            )
            if len(verts) != s:  # s == 1 with a shared vertex collapses
                verts = list(range(nxt, nxt + s))
            nxt = max(verts) + 1
            blocks.append(verts)
            last = verts[-1]
        return cls(nxt, blocks)

    @property
    def n(self) -> int:
        return self._n

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The declared cliques (normalised, in declaration order)."""
        return self._blocks

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def relabeled(self, mapping: Sequence[int]) -> "BlockGraph":
        """Apply the permutation ``mapping`` (``new_id = mapping[old_id]``)."""
        if sorted(mapping) != list(range(self._n)):
            raise InvalidInstanceError("mapping must be a permutation of the vertices")
        blocks = [[mapping[v] for v in blk] for blk in self._blocks]
        return BlockGraph(self._n, blocks)

    def induced_subgraph(
        self, vertices: Iterable[int]
    ) -> tuple["BlockGraph", list[int]]:
        """Subgraph induced by ``vertices`` (still a block graph).

        Returns ``(subgraph, original_ids)``.  Each declared clique is
        intersected with the kept set; two original blocks share at most
        one vertex, so the trimmed blocks do too and the block property
        is preserved by construction.
        """
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        blocks = [
            trimmed
            for blk in self._blocks
            if (trimmed := [index[v] for v in blk if v in index])
        ]
        return BlockGraph(len(keep), blocks), keep

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockGraph(n={self._n}, blocks={len(self._blocks)}, "
            f"edges={self._edge_count})"
        )
