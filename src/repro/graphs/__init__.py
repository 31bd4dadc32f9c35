"""Conflict-graph substrate.

Everything the paper's algorithms need from graph theory, implemented
from scratch: the :class:`ConflictGraph` abstraction with its
:class:`BipartiteGraph`, :class:`CompleteMultipartiteGraph`, and
:class:`BlockGraph` implementations, proper/inequitable 2-colorings
(Definition 1), maximum matching (Hopcroft-Karp), minimum-weight vertex
covers and maximum-weight independent sets via min-cut (used by
Algorithm 1),
deterministic instance-family generators, structural conflict-class
recognition, and the 1-PrExt precoloring-extension problem
(Definition 2 / Theorem 3).
"""

from repro.graphs.conflict import (
    BlockGraph,
    CompleteMultipartiteGraph,
    ConflictGraph,
    biconnected_components,
)
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import connected_components
from repro.graphs.coloring import (
    proper_two_coloring,
    inequitable_two_coloring,
    is_proper_coloring,
)
from repro.graphs.matching import hopcroft_karp, maximum_matching_size
from repro.graphs.maximal_matching import (
    greedy_maximal_matching,
    is_maximal_matching,
    matching_size,
    minimum_maximal_matching_size,
    small_maximal_matching,
)
from repro.graphs.vertex_cover import min_weight_vertex_cover, is_vertex_cover
from repro.graphs.independent_set import (
    max_weight_independent_set,
    max_weight_independent_set_containing,
    independence_number,
)
from repro.graphs import generators
from repro.graphs.precoloring import (
    PrExtInstance,
    solve_prext,
    claw_no_instance,
    planted_yes_instance,
    random_prext_instance,
)
from repro.graphs.structure import (
    GraphStructure,
    analyze_structure,
    classify_conflict_graph,
    complete_bipartite_parts,
    complete_bipartite_parts_with_free,
    is_bipartite_structure,
    is_bisubquartic,
    is_block_structure,
    is_cubic,
    is_empty,
    is_forest,
    is_path,
    is_perfect_matching_graph,
    is_regular,
    multipartite_decomposition,
)

__all__ = [
    "ConflictGraph",
    "BipartiteGraph",
    "CompleteMultipartiteGraph",
    "BlockGraph",
    "biconnected_components",
    "connected_components",
    "proper_two_coloring",
    "inequitable_two_coloring",
    "is_proper_coloring",
    "hopcroft_karp",
    "maximum_matching_size",
    "greedy_maximal_matching",
    "is_maximal_matching",
    "matching_size",
    "minimum_maximal_matching_size",
    "small_maximal_matching",
    "min_weight_vertex_cover",
    "is_vertex_cover",
    "max_weight_independent_set",
    "max_weight_independent_set_containing",
    "independence_number",
    "generators",
    "PrExtInstance",
    "solve_prext",
    "claw_no_instance",
    "planted_yes_instance",
    "random_prext_instance",
    "GraphStructure",
    "analyze_structure",
    "classify_conflict_graph",
    "complete_bipartite_parts",
    "complete_bipartite_parts_with_free",
    "is_bipartite_structure",
    "is_bisubquartic",
    "is_block_structure",
    "is_cubic",
    "is_empty",
    "is_forest",
    "is_path",
    "is_perfect_matching_graph",
    "is_regular",
    "multipartite_decomposition",
]
