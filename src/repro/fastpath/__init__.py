"""Integer fast paths for the hot loops, proven exact by differential tests.

``repro.fastpath`` is the "raw-speed core" from the ROADMAP: per-instance
integer normalization (:mod:`~repro.fastpath.normalize`, the
:class:`IntView` scaling certificate) plus accelerated kernels for four
hot loops.  The first three have two independent kernel tiers each:

* ``graphs.matching.hopcroft_karp`` — ``hopcroft_karp_int`` /
  ``hopcroft_karp_numpy``
* ``scheduling.list_scheduling.assign_group_greedy`` —
  ``assign_group_greedy_int`` / ``assign_group_greedy_numpy``
* ``scheduling.bounds.min_cover_time`` and ``..._with_loads`` (the
  exact oracle's per-node bound) — ``min_cover_time*_int`` /
  ``min_cover_time*_numpy``

The fourth is Algorithm 5's Pareto DP,
``scheduling.dp_unrelated.solve_r2_dp``.  Its reference is already
integer, so it has one accelerated tier: ``r2_dp_layer_numpy`` builds
one DP layer, and ``solve_r2_dp`` chooses per layer between it and the
reference dict step (layers of at least :data:`R2_DP_NUMPY_MIN_STATES`
states whose packed key fits ``int64``).  Both steps follow the dict's
rules: a bucket keeps the first candidate with the strictly smallest
``l2``, buckets are listed in the order of their first candidate
(state by state, machine 1 before machine 2), and the final pick is
the first state with minimal ``max(l1, l2)`` in that order.

Selection is transparent: the public functions call the dispatchers
here, which pick a kernel by the ``REPRO_FASTPATH`` environment
variable and the instance size.  Nothing about results changes, ever —
the differential suite (``tests/differential/``) asserts byte-identical
outputs across all tiers on every instance kind, and the tie-break
policy that makes that possible is pinned in
:mod:`~repro.fastpath.kernels_int`.

``REPRO_FASTPATH`` values:

``0`` / ``off`` / ``false`` / ``no``
    Escape hatch — public APIs run their original rational reference
    implementations, fastpath code is never entered.
``int``
    Integer kernels only (arbitrary-precision, no numpy) — useful to
    rule numpy in/out when debugging, and what the differential tests
    use to pin each tier down individually.  The R2 DP runs its
    reference dict step on every layer.
anything else / unset
    Auto: numpy kernels above the size cutoffs below when numpy is
    importable and the operands fit ``int64`` (checked, never assumed),
    integer kernels otherwise.  Numpy failures
    (:exc:`FastpathUnavailable`) fall back to the int kernels silently
    — the int tier is always correct and always available.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from repro.fastpath import kernels_int, kernels_numpy
from repro.fastpath.kernels_numpy import FastpathUnavailable, numpy_available
from repro.fastpath.normalize import (
    IntView,
    int_view,
    scaled_speeds,
    scaled_speeds_cache_clear,
    scaled_speeds_cache_stats,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.graphs.bipartite import BipartiteGraph
    from repro.scheduling.instance import UniformInstance

__all__ = [
    "FastpathUnavailable",
    "IntView",
    "int_view",
    "scaled_speeds",
    "scaled_speeds_cache_stats",
    "scaled_speeds_cache_clear",
    "numpy_available",
    "fastpath_mode",
    "enabled",
    "hopcroft_karp_fast",
    "assign_group_greedy_fast",
    "min_cover_time_fast",
    "min_cover_time_with_loads_fast",
    "MATCHING_NUMPY_MIN_N",
    "GREEDY_NUMPY_MIN_JOBS",
    "COVER_NUMPY_MIN_MACHINES",
    "R2_DP_NUMPY_MIN_STATES",
]

_OFF_VALUES = frozenset({"0", "off", "false", "no"})

#: size cutoffs below which the numpy kernels lose to the int kernels
#: (array setup dominates); measured with ``repro perf --target fastpath``
MATCHING_NUMPY_MIN_N = 512
GREEDY_NUMPY_MIN_JOBS = 1024
COVER_NUMPY_MIN_MACHINES = 256
#: states in an R2 DP layer below which the dict step builds the next
#: layer faster than the numpy step (the two break even at 64-95 states
#: on sparse-fptas layers)
R2_DP_NUMPY_MIN_STATES = 64

#: below this average degree the vectorized BFS loses to the int kernel
#: even on large graphs — the per-phase CSR gather moves more data than
#: the sparse frontier it saves
MATCHING_NUMPY_MIN_AVG_DEGREE = 4.0


def fastpath_mode() -> str:
    """Resolve ``REPRO_FASTPATH`` to ``'off'``, ``'int'`` or ``'auto'``."""
    raw = os.environ.get("REPRO_FASTPATH", "").strip().lower()
    if raw in _OFF_VALUES:
        return "off"
    if raw == "int":
        return "int"
    return "auto"


def enabled() -> bool:
    """Whether the public APIs should route into the fast path at all."""
    return fastpath_mode() != "off"


def hopcroft_karp_fast(graph: "BipartiteGraph", mode: str | None = None) -> list[int]:
    """Fast-path Hopcroft–Karp; same mate array as the reference."""
    if mode is None:
        mode = fastpath_mode()
    if (
        mode == "auto"
        and graph.n >= MATCHING_NUMPY_MIN_N
        and graph.edge_count * 2 >= MATCHING_NUMPY_MIN_AVG_DEGREE * graph.n
        and numpy_available()
    ):
        try:
            return kernels_numpy.hopcroft_karp_numpy(graph)
        except FastpathUnavailable:
            pass
    return kernels_int.hopcroft_karp_int(graph)


def assign_group_greedy_fast(
    instance: "UniformInstance",
    jobs: Sequence[int],
    machines: Sequence[int],
    mode: str | None = None,
) -> dict[int, int]:
    """Fast-path greedy list scheduling; same mapping as the reference."""
    if mode is None:
        mode = fastpath_mode()
    view = int_view(instance)
    if mode == "auto" and len(jobs) >= GREEDY_NUMPY_MIN_JOBS and numpy_available():
        try:
            return kernels_numpy.assign_group_greedy_numpy(
                view.p, view.speeds_scaled, jobs, machines
            )
        except FastpathUnavailable:
            pass
    return kernels_int.assign_group_greedy_int(
        view.p, view.speeds_scaled, jobs, machines
    )


def min_cover_time_fast(
    speeds: Sequence[Fraction], demand: int, mode: str | None = None
) -> Fraction:
    """Fast-path cover time; canonically identical Fraction to the reference."""
    if mode is None:
        mode = fastpath_mode()
    scaled, scale = scaled_speeds(tuple(speeds))
    if (
        mode == "auto"
        and len(scaled) >= COVER_NUMPY_MIN_MACHINES
        and numpy_available()
    ):
        try:
            return kernels_numpy.min_cover_time_numpy(scaled, scale, demand)
        except FastpathUnavailable:
            pass
    return kernels_int.min_cover_time_int(scaled, scale, demand)


def min_cover_time_with_loads_fast(
    speeds: Sequence[Fraction],
    loads: Sequence[int],
    demand: int,
    mode: str | None = None,
) -> Fraction:
    """Fast-path pre-loaded cover time (the oracle's per-node bound)."""
    if mode is None:
        mode = fastpath_mode()
    scaled, scale = scaled_speeds(tuple(speeds))
    if (
        mode == "auto"
        and len(scaled) >= COVER_NUMPY_MIN_MACHINES
        and numpy_available()
    ):
        try:
            return kernels_numpy.min_cover_time_with_loads_numpy(
                scaled, scale, loads, demand
            )
        except FastpathUnavailable:
            pass
    return kernels_int.min_cover_time_with_loads_int(scaled, scale, loads, demand)
