"""Exact lower bounds on the optimal makespan.

The key quantity is the paper's ``C**max`` (Algorithm 1, step 5 and
Algorithm 2, step 2): the least time ``T`` at which the *rounded-down*
machine capacities ``floor(s_i * T)`` cover a given processing demand.
Because jobs have integer sizes, a machine finishing within ``T`` can carry
at most ``floor(s_i * T)`` units of work, so every such ``T`` threshold is
a genuine lower bound on ``C*max``.

All computations are exact; :func:`min_cover_time` uses the observation
(cf. Lemma 10) that the count function ``T -> sum_i floor(s_i T)`` only
jumps at times of the form ``c / s_i``, and that the answer lives in the
window ``[D / S, (D + m) / S]`` (``S = sum s_i``) which contains only
``O(m)`` candidate jump points.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro import fastpath
from repro.exceptions import InvalidInstanceError
from repro.fastpath import FastpathUnavailable, kernels_numpy, scaled_speeds
from repro.scheduling.instance import UniformInstance, UnrelatedInstance

__all__ = [
    "min_cover_time",
    "min_cover_time_with_loads",
    "area_lower_bound",
    "pmax_lower_bound",
    "uniform_capacity_lower_bound",
    "unrelated_lower_bound",
]


def min_cover_time(speeds: Sequence[Fraction], demand: int) -> Fraction:
    """Least ``T >= 0`` with ``sum_i floor(s_i * T) >= demand`` (exact).

    Raises :exc:`InvalidInstanceError` when no machines are given but
    demand is positive.  This is :func:`min_cover_time_with_loads` on
    empty machines, which searches the same jump points.
    """
    return min_cover_time_with_loads(speeds, [0] * len(speeds), demand)


def min_cover_time_with_loads(
    speeds: Sequence[Fraction],
    loads: Sequence[int],
    demand: int,
) -> Fraction:
    """Least ``T`` finishing ``demand`` extra units on pre-loaded machines.

    Machine ``i`` already carries ``loads[i]`` integer units of work; the
    answer is the least ``T`` with ``T >= max_i loads[i] / s_i`` and
    ``sum_i max(0, floor(s_i * T) - loads[i]) >= demand``.  This is the
    partial-assignment generalisation of :func:`min_cover_time` (all
    loads zero reduces to it) and is what the certification oracle
    (:mod:`repro.certify.oracle`) prunes with: any completion of a
    partial schedule must fit the remaining integer demand into the
    rounded-down residual capacities.

    With ``demand <= 0`` this is just the current completion frontier
    ``max_i loads[i] / s_i``.

    Runs on the speeds scaled to integers (``s_i = S_i / scale``, see
    :func:`repro.fastpath.scaled_speeds`): capacities jump only at
    times ``c * scale / S_i``, and at time ``num / den`` machine ``k``
    holds ``(S_k * num) // (den * scale)`` units.  With at least
    :data:`repro.fastpath.COVER_NUMPY_MIN_MACHINES` machines the
    jump-point search is vectorized
    (:func:`repro.fastpath.kernels_numpy.min_cover_time_with_loads_numpy`)
    whenever the operands fit ``int64``; both searches return the same
    least jump point.
    """
    scaled, scale = scaled_speeds(tuple(speeds))
    if len(scaled) >= fastpath.COVER_NUMPY_MIN_MACHINES:
        try:
            return kernels_numpy.min_cover_time_with_loads_numpy(
                scaled, scale, loads, demand
            )
        except FastpathUnavailable:
            pass
    if len(scaled) != len(loads):
        raise InvalidInstanceError(
            f"{len(loads)} loads for {len(scaled)} machines"
        )
    if not scaled:
        if demand > 0:
            raise InvalidInstanceError("positive demand but no machines")
        return Fraction(0)
    # frontier = max_i loads[i] * scale / S_i by integer cross-multiplication
    f_num, f_den = 0, 1
    for load, s in zip(loads, scaled):
        if load * f_den > f_num * s:
            f_num, f_den = load, s
    frontier = Fraction(f_num * scale, f_den)
    if demand <= 0:
        return frontier
    m = len(scaled)
    total = sum(scaled)
    total_units = sum(loads) + demand
    lo = max(frontier, Fraction(total_units * scale, total))
    # at hi = (U + m) / S every machine wastes < 1 unit to rounding, so
    # the residual capacities cover the demand; the frontier keeps the
    # max() condition satisfied
    hi = max(frontier, Fraction((total_units + m) * scale, total))
    candidates: set[Fraction] = {hi}
    for s in scaled:
        c_lo = max(1, -((-s * lo.numerator) // (lo.denominator * scale)))
        c_hi = (s * hi.numerator) // (hi.denominator * scale)
        for c in range(c_lo, c_hi + 1):
            candidates.add(Fraction(c * scale, s))
    feasible = sorted(t for t in candidates if lo <= t <= hi)

    def _covers(t: Fraction) -> bool:
        d = t.denominator * scale
        residual = 0
        for s, load in zip(scaled, loads):
            extra = (s * t.numerator) // d - load
            if extra > 0:
                residual += extra
                if residual >= demand:
                    return True
        return False

    left, right = 0, len(feasible) - 1
    answer = feasible[right]
    while left <= right:
        mid = (left + right) // 2
        if _covers(feasible[mid]):
            answer = feasible[mid]
            right = mid - 1
        else:
            left = mid + 1
    return answer


def area_lower_bound(instance: UniformInstance) -> Fraction:
    """Fractional relaxation ``sum p_j / sum s_i`` (ignores integrality)."""
    return Fraction(instance.total_p) / sum(instance.speeds)


def pmax_lower_bound(instance: UniformInstance) -> Fraction:
    """``p_max / s_1``: the longest job on the fastest machine."""
    if instance.n == 0:
        return Fraction(0)
    return Fraction(instance.pmax) / instance.speeds[0]


def uniform_capacity_lower_bound(
    instance: UniformInstance,
    off_first_machine_demand: int | None = None,
) -> Fraction:
    """The paper's ``C**max`` for uniform machines.

    Least ``T`` such that

    * rounded-down capacities of all machines cover ``sum p_j``,
    * rounded-down capacities of ``M_2..M_m`` cover
      ``off_first_machine_demand`` (Algorithm 1 uses the weight of
      ``J \\ I`` — jobs that provably cannot all sit on ``M_1``),
    * ``M_1`` can process ``p_max``.

    Each condition is monotone in ``T`` so the least feasible ``T`` is the
    max of the three per-condition thresholds.  Always a lower bound on
    ``C*max`` provided ``off_first_machine_demand`` really must leave
    ``M_1`` in every feasible schedule.
    """
    t_all = min_cover_time(instance.speeds, instance.total_p)
    t_rest = Fraction(0)
    if off_first_machine_demand:
        if instance.m < 2:
            raise InvalidInstanceError(
                "demand must leave machine 1 but there is only one machine"
            )
        t_rest = min_cover_time(instance.speeds[1:], off_first_machine_demand)
    return max(t_all, t_rest, pmax_lower_bound(instance))


def unrelated_lower_bound(instance: UnrelatedInstance) -> Fraction:
    """Simple exact bounds for ``R``: ``max_j min_i p_ij`` and the
    fractional volume ``(sum_j min_i p_ij) / m``.

    Raises :exc:`InvalidInstanceError` if some job has no eligible
    machine — :class:`UnrelatedInstance` rejects that at construction,
    so seeing it here means the instance was mutated or corrupted (a
    bare ``assert`` would vanish under ``python -O``).
    """
    if instance.n == 0:
        return Fraction(0)
    mins: list[Fraction] = []
    for j in range(instance.n):
        best: Fraction | None = None
        for i in range(instance.m):
            t = instance.times[i][j]
            if t is not None and (best is None or t < best):
                best = t
        if best is None:
            raise InvalidInstanceError(
                f"job {j} is forbidden on every machine (instance "
                "invariant violated after construction)"
            )
        mins.append(best)
    return max(max(mins), sum(mins) / instance.m)
