"""Integer normalization and the numpy tier of the hot loops.

Every hot loop has one exact integer reference, kept in the module that
owns its public function, and at most one numpy tier, kept in
:mod:`~repro.fastpath.kernels_numpy`:

* ``scheduling.list_scheduling.assign_group_greedy`` —
  ``assign_group_greedy_numpy`` for batches of at least
  :data:`GREEDY_NUMPY_MIN_JOBS` jobs;
* ``scheduling.bounds.min_cover_time_with_loads`` (the exact oracle's
  per-node bound, and ``min_cover_time`` on empty machines) —
  ``min_cover_time_with_loads_numpy`` for at least
  :data:`COVER_NUMPY_MIN_MACHINES` machines;
* ``scheduling.dp_unrelated.solve_r2_dp`` (Algorithm 5's Pareto DP) —
  ``r2_dp_layer_numpy`` for layers of at least
  :data:`R2_DP_NUMPY_MIN_STATES` states.

``graphs.matching.hopcroft_karp`` has no numpy tier: a vectorized BFS
ran at 0.56–0.93× of the integer kernel on ``G(n, n, d/n)`` up to
``n = 5 000`` per side and at most 1.45× above that (see
``docs/PERFORMANCE.md``).

A numpy tier is taken only above its cutoff, and only when its operands
fit ``int64`` — checked, never assumed; otherwise it raises
:exc:`FastpathUnavailable` and the integer reference runs.  Both give
byte-identical results: ``tests/differential/`` forces each tier by
patching the cutoffs below and compares them on every instance kind.
The R2 DP's two steps share the dict's rules: a bucket keeps the first
candidate with the strictly smallest ``l2``, buckets are listed in the
order of their first candidate (state by state, machine 1 before
machine 2), and the final pick is the first state with minimal
``max(l1, l2)`` in that order.

The integer kernels read speeds through the :class:`IntView` scaling
certificate (:mod:`~repro.fastpath.normalize`).
"""

from __future__ import annotations

from repro.fastpath.kernels_numpy import FastpathUnavailable
from repro.fastpath.normalize import (
    IntView,
    int_view,
    scaled_speeds,
    scaled_speeds_cache_stats,
)

__all__ = [
    "FastpathUnavailable",
    "IntView",
    "int_view",
    "scaled_speeds",
    "scaled_speeds_cache_stats",
    "GREEDY_NUMPY_MIN_JOBS",
    "COVER_NUMPY_MIN_MACHINES",
    "R2_DP_NUMPY_MIN_STATES",
]

#: size cutoffs below which the numpy kernels lose to the integer
#: references (array setup dominates); measured with ``repro perf
#: --target fastpath``
GREEDY_NUMPY_MIN_JOBS = 1024
COVER_NUMPY_MIN_MACHINES = 256
#: states in an R2 DP layer below which the dict step builds the next
#: layer faster than the numpy step (the two break even at 64-95 states
#: on sparse-fptas layers)
R2_DP_NUMPY_MIN_STATES = 64
