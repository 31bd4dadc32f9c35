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

from repro.exceptions import InvalidInstanceError
from repro.fastpath import scaled_speeds
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
    :func:`repro.fastpath.scaled_speeds`).  Capacities jump only at
    times ``c * scale / S_i``, kept as the integer pair ``(c, S_i)``
    and ordered exactly by the key ``(c << b) // S_i`` with
    ``2**b > 2 * max(S)**2`` (two distinct jump points differ by at
    least ``1 / (S_i * S_j)``, so they never share a key).  Each jump
    point adds one unit of capacity, so after one sort the answer is
    read off by index; the one :class:`~fractions.Fraction` is built
    at return.
    """
    scaled, scale = scaled_speeds(tuple(speeds))
    if len(scaled) != len(loads):
        raise InvalidInstanceError(
            f"{len(loads)} loads for {len(scaled)} machines"
        )
    if not scaled:
        if demand > 0:
            raise InvalidInstanceError("positive demand but no machines")
        return Fraction(0)
    # frontier = max_i loads[i] / S_i by integer cross-multiplication
    f_num, f_den = 0, 1
    for load, s in zip(loads, scaled):
        if load * f_den > f_num * s:
            f_num, f_den = load, s
    if demand <= 0:
        return Fraction(f_num * scale, f_den)
    total = sum(scaled)
    total_units = sum(loads) + demand
    # the answer is a jump point in [lo, hi] (in units of ``scale``):
    # lo = max(frontier, U / total), and at hi = max(frontier,
    # (U + m) / total) every machine wastes < 1 unit to rounding, so the
    # residual capacities cover the demand
    lo_num, lo_den = total_units, total
    if f_num * total >= total_units * f_den:
        lo_num, lo_den = f_num, f_den
    hi_num, hi_den = total_units + len(scaled), total
    if f_num * total >= hi_num * f_den:
        hi_num, hi_den = f_num, f_den
    shift = 2 * max(scaled).bit_length() + 1
    # from lo on every machine is at or past its load, so the residual
    # capacity at a jump point x is ``base`` (the units each machine
    # holds just below lo, less its load) plus the number of jump points
    # in [lo, x]: the answer is the first one to bring it to ``demand``
    base = -sum(loads)
    candidates: list[tuple[int, int, int]] = []
    for s in scaled:
        c_lo = max(1, -((-s * lo_num) // lo_den))
        c_hi = (s * hi_num) // hi_den
        base += c_lo - 1
        candidates.extend(((c << shift) // s, c, s) for c in range(c_lo, c_hi + 1))
    candidates.sort()
    _, c, s = candidates[max(0, demand - base - 1)]
    return Fraction(c * scale, s)


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
