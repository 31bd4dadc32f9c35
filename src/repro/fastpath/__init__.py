"""The numpy tier of the hot loops.

Every hot loop has one exact integer reference, kept in the module that
owns its public function, and at most one numpy tier, kept in
:mod:`~repro.fastpath.kernels_numpy`.  One loop has a numpy tier today:

* ``scheduling.dp_unrelated.solve_r2_dp`` (Algorithm 5's Pareto DP) —
  ``r2_dp_layer_numpy`` for layers of at least
  :data:`R2_DP_NUMPY_MIN_STATES` states.

A numpy tier stays only while its row of ``BENCH_PERF_fastpath.json``
shows it paying at the shape of an ``e2ebench`` workload that reaches
it.  ``graphs.matching.hopcroft_karp`` has no numpy tier: a vectorized
BFS ran at 0.56–0.93× of the integer kernel on ``G(n, n, d/n)`` up to
``n = 5 000`` per side and at most 1.45× above that.  Nor has
``scheduling.bounds.min_cover_time_with_loads`` (the exact oracle's
per-node bound): its integer reference runs within 2× of the
vectorized jump-point search it replaced, even at ``m = 10 000``
machines.  Nor has ``scheduling.list_scheduling.assign_group_greedy``:
no workload list-schedules a batch large enough for its numpy tier to
pay (see ``docs/PERFORMANCE.md``).

A numpy tier is taken only above its cutoff, and only when its operands
fit ``int64`` — checked, never assumed; otherwise it raises
:exc:`FastpathUnavailable` and the integer reference runs.  Both give
byte-identical results: ``tests/differential/`` forces each tier by
patching the cutoff below and compares them on every instance kind.
The R2 DP's two steps share the dict's rules: a bucket keeps the first
candidate with the strictly smallest ``l2``, buckets are listed in the
order of their first candidate (state by state, machine 1 before
machine 2), and the final pick is the first state with minimal
``max(l1, l2)`` in that order.
"""

from __future__ import annotations

from repro.fastpath.kernels_numpy import FastpathUnavailable

__all__ = [
    "FastpathUnavailable",
    "R2_DP_NUMPY_MIN_STATES",
]

#: states in an R2 DP layer below which the dict step builds the next
#: layer faster than the numpy step (the two break even at 64-95 states
#: on sparse-fptas layers); measured with ``repro perf --target fastpath``
R2_DP_NUMPY_MIN_STATES = 64
