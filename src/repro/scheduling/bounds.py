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

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from repro.exceptions import InvalidInstanceError
from repro.scheduling.instance import UniformInstance, UnrelatedInstance
from repro.utils.rationals import speed_grid

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

    Runs on the integer time grid of the speeds
    (:func:`repro.utils.rationals.speed_grid`): one unit on machine
    ``i`` takes ``u_i`` ticks of ``1 / Q``, so the frontier is
    ``max_i loads[i] * u_i`` ticks and machine ``i``'s capacity jumps
    at the ticks ``c * u_i``.  Each jump point adds one unit of
    capacity, so after one sort of these integers the answer is read
    off by index; the one :class:`~fractions.Fraction` is built at
    return.
    """
    quantum, unit_times = speed_grid(speeds)
    if len(unit_times) != len(loads):
        raise InvalidInstanceError(
            f"{len(loads)} loads for {len(unit_times)} machines"
        )
    if not unit_times:
        if demand > 0:
            raise InvalidInstanceError("positive demand but no machines")
        return Fraction(0)
    frontier = max(0, *map(mul, loads, unit_times))
    if demand <= 0:
        return Fraction(frontier, quantum)
    # the total speed S = s_num / s_den: U units of work on all machines
    # at once take U / S, that is U * quantum * s_den / s_num ticks
    s_den = math.lcm(*(s.denominator for s in speeds))
    s_num = sum(s.numerator * (s_den // s.denominator) for s in speeds)
    total_units = sum(loads) + demand
    # the answer is a jump point in [lo, hi] (in ticks): lo =
    # max(frontier, U / S), and at hi = max(frontier, (U + m) / S) every
    # machine wastes < 1 unit to rounding, so the residual capacities
    # cover the demand
    lo_num, lo_den = total_units * quantum * s_den, s_num
    if frontier * lo_den >= lo_num:
        lo_num, lo_den = frontier, 1
    hi_num, hi_den = (total_units + len(unit_times)) * quantum * s_den, s_num
    if frontier * hi_den >= hi_num:
        hi_num, hi_den = frontier, 1
    # from lo on every machine is at or past its load, so the residual
    # capacity at a jump point x is ``base`` (the units each machine
    # holds just below lo, less its load) plus the number of jump points
    # in [lo, x]: the answer is the first one to bring it to ``demand``
    base = -sum(loads)
    candidates: list[int] = []
    for u in unit_times:
        c_lo = max(1, -(-lo_num // (lo_den * u)))
        c_hi = hi_num // (hi_den * u)
        base += c_lo - 1
        candidates.extend(range(c_lo * u, c_hi * u + 1, u))
    candidates.sort()
    return Fraction(candidates[max(0, demand - base - 1)], quantum)


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
