"""Exact scheduling of unit jobs with complete (multi)partite conflicts.

Related work [20] proves ``Q|G = complete bipartite, p_j = 1|Cmax`` is
NP-hard under *binary* encoding but polynomial under the customary unary
encoding; [24] extends the study to complete multipartite graphs.  This
module implements the unary-encoding exact algorithm:

In a complete multipartite graph any two jobs from different parts
conflict, so **every machine processes jobs from at most one part** (plus
any conflict-free jobs).  An optimal schedule is therefore described by

* an assignment of machines to parts (or to "unused"),
* per-part job counts bounded by the machine capacities
  ``floor(s_i * T)``.

The least feasible ``T`` is found by binary search over the ``O(n m)``
candidate times ``c / s_i`` at which some capacity jumps; feasibility for
a fixed ``T`` is a covering problem solved exactly:

* two parts — subset-sum reachability over capped capacities (bitset),
* ``k >= 3`` parts — dynamic programming over capped covered-amount
  tuples, ``O(m * k * prod(n_t + 1))``: exponential in ``k`` but
  pseudo-polynomial (hence polynomial under unary encoding) for fixed
  ``k``, matching the positive results of [24].

Isolated ("free") jobs are supported: they only consume capacity, so
feasibility additionally requires the total capacity to cover *all* jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.graphs.structure import (
    complete_bipartite_parts_with_free,
    multipartite_decomposition,
)
from repro.scheduling.bounds import min_cover_time
from repro.scheduling.instance import UniformInstance
from repro.scheduling.schedule import Schedule
from repro.utils.rationals import ceil_fraction, floor_fraction

__all__ = [
    "MultipartiteSolution",
    "complete_multipartite_min_time",
    "schedule_complete_bipartite_unit",
    "schedule_complete_multipartite_unit",
]


@dataclass(frozen=True)
class MultipartiteSolution:
    """An optimal machine-to-part plan for unit multipartite conflicts.

    Attributes
    ----------
    makespan:
        The least feasible time ``T`` (exact rational).
    machine_part:
        ``machine_part[i]`` is the part index served by machine ``i`` or
        ``None`` when the machine serves only free jobs (or nothing).
    part_counts:
        ``part_counts[i]`` is the number of *part* jobs machine ``i``
        runs; free jobs are placed on top of these counts greedily.
    free_counts:
        Number of free (isolated) jobs per machine.
    """

    makespan: Fraction
    machine_part: tuple[int | None, ...]
    part_counts: tuple[int, ...]
    free_counts: tuple[int, ...]


def _capacities(speeds: Sequence[Fraction], t: Fraction, cap: int) -> list[int]:
    """Per-machine integer capacities ``min(floor(s_i * t), cap)``.

    Capping at the total job count ``cap`` is lossless for feasibility
    (``sum_i min(c_i, N) >= min(sum_i c_i, N)``) and keeps the subset-sum
    universe pseudo-polynomial.
    """
    return [min(floor_fraction(s * t), cap) for s in speeds]


def _two_part_groups(caps: list[int], n1: int, n2: int) -> list[int | None] | None:
    """Partition machines into two groups covering ``n1`` and ``n2``.

    Returns ``groups`` with entries 0/1 (part index) or ``None`` when
    infeasible.  Subset-sum reachability is computed with per-prefix
    bitsets so membership can be reconstructed by walking backwards.
    """
    total = sum(caps)
    if total < n1 + n2:
        return None
    # prefix[i] = bitset of sums reachable using machines 0..i-1
    prefix: list[int] = [1]
    bits = 1
    for c in caps:
        bits |= bits << c
        prefix.append(bits)
    lo, hi = n1, total - n2
    if lo > hi:
        return None
    target = -1
    probe = prefix[-1] >> lo
    offset = 0
    while probe and lo + offset <= hi:
        if probe & 1:
            target = lo + offset
            break
        shift = (probe & -probe).bit_length() - 1
        probe >>= shift
        offset += shift
    if target == -1:
        return None
    groups: list[int | None] = [1] * len(caps)
    s = target
    for i in range(len(caps) - 1, -1, -1):
        # machine i belongs to group 0 iff s - caps[i] was reachable before
        c = caps[i]
        if c <= s and (prefix[i] >> (s - c)) & 1:
            groups[i] = 0
            s -= c
        # else machine i stays in group 1 and s is unchanged (s must have
        # been reachable without machine i: prefix[i] >> s & 1)
    # repro: allow[RS004] reason=subset-sum reconstruction invariant: prefix masks certified s reachable, so the walk must consume it
    assert s == 0, "subset-sum reconstruction failed"
    return groups


def _k_part_groups(
    caps: list[int], demands: Sequence[int]
) -> list[int | None] | None:
    """Cover ``demands`` by machine groups — exact DP for ``k >= 1`` parts.

    State: tuple of covered amounts, each capped at its demand.  Value:
    back-pointer ``(previous_state, part_chosen)`` per machine layer.
    Machines not helping any part are left unused (``None``).
    """
    k = len(demands)
    total_needed = sum(demands)
    if sum(caps) < total_needed:
        return None
    start = tuple([0] * k)
    goal = tuple(demands)
    # layers[i] maps state -> (prev_state, part or None) after machine i
    layers: list[dict[tuple[int, ...], tuple[tuple[int, ...], int | None]]] = []
    current: dict[tuple[int, ...], tuple[tuple[int, ...], int | None]] = {
        start: (start, None)
    }
    for c in caps:
        nxt: dict[tuple[int, ...], tuple[tuple[int, ...], int | None]] = {}
        for state in current:
            if state not in nxt:
                nxt[state] = (state, None)  # machine unused
            if c == 0:
                continue
            for t in range(k):
                if state[t] == demands[t]:
                    continue
                bumped = list(state)
                bumped[t] = min(demands[t], state[t] + c)
                key = tuple(bumped)
                if key not in nxt:
                    nxt[key] = (state, t)
        layers.append(current)
        current = nxt
    if goal not in current:
        return None
    groups: list[int | None] = [None] * len(caps)
    state = goal
    for i in range(len(caps) - 1, -1, -1):
        # find how state was produced at layer i
        prev, part = current[state]
        groups[i] = part
        state = prev
        current = layers[i]
    return groups


def _feasible_groups(
    caps: list[int], demands: Sequence[int], total_jobs: int
) -> list[int | None] | None:
    """Machine groups covering every demand, or ``None``.

    ``total_jobs`` includes free jobs: the total capacity must cover them
    on top of the part demands (free jobs use any machine's surplus).
    """
    if sum(caps) < total_jobs:
        return None
    k = len(demands)
    if k == 0:
        return [None] * len(caps)
    if k == 1:
        # all capacity may serve the single part; surplus takes free jobs
        if sum(caps) < demands[0]:
            return None
        return [0] * len(caps)
    if k == 2:
        return _two_part_groups(caps, demands[0], demands[1])
    return _k_part_groups(caps, demands)


def complete_multipartite_min_time(
    part_sizes: Sequence[int],
    speeds: Sequence[Fraction],
    free_jobs: int = 0,
) -> MultipartiteSolution:
    """Optimal makespan for unit jobs under complete multipartite conflicts.

    Parameters
    ----------
    part_sizes:
        Number of unit jobs in each part of the complete multipartite
        conflict graph (zero-size parts are dropped).
    speeds:
        Machine speeds, positive rationals in any order (the returned
        plan indexes machines in the order given).
    free_jobs:
        Conflict-free unit jobs that may run anywhere.

    Raises
    ------
    InfeasibleInstanceError
        When there are more non-empty parts than machines.
    """
    demands = [int(s) for s in part_sizes if s > 0]
    if any(s < 0 for s in part_sizes):
        raise InvalidInstanceError("part sizes must be non-negative")
    if free_jobs < 0:
        raise InvalidInstanceError("free job count must be non-negative")
    speeds = list(speeds)
    if not speeds and (demands or free_jobs):
        raise InvalidInstanceError("jobs given but no machines")
    if len(demands) > len(speeds):
        raise InfeasibleInstanceError(
            f"{len(demands)} mutually conflicting parts need at least that "
            f"many machines, got {len(speeds)}"
        )
    total_jobs = sum(demands) + free_jobs
    m = len(speeds)
    if total_jobs == 0:
        return MultipartiteSolution(
            Fraction(0), tuple([None] * m), tuple([0] * m), tuple([0] * m)
        )

    # search window: [cover-everything bound, parts-on-fastest-machines]
    lo = min_cover_time(speeds, total_jobs)
    order = sorted(range(m), key=lambda i: -speeds[i])
    sorted_demands = sorted(demands, reverse=True)
    hi = lo
    for rank, demand in enumerate(sorted_demands):
        hi = max(hi, min_cover_time([speeds[order[rank]]], demand))

    def groups_at(t: Fraction) -> list[int | None] | None:
        return _feasible_groups(_capacities(speeds, t, total_jobs), demands, total_jobs)

    # candidate times where any capacity min(floor(s_i * t), total_jobs)
    # jumps; past total_jobs a capped capacity no longer changes, so the
    # count per machine stays bounded however large the speed ratio
    candidates: set[Fraction] = {hi}
    for s in speeds:
        c_lo = max(1, ceil_fraction(s * lo))
        c_hi = min(floor_fraction(s * hi), total_jobs)
        for c in range(c_lo, c_hi + 1):
            candidates.add(Fraction(c) / s)
    times = sorted(t for t in candidates if lo <= t <= hi)
    left, right = 0, len(times) - 1
    best_t = times[right]
    best_groups = groups_at(best_t)
    # repro: allow[RS004] reason=binary-search invariant: times[right] is the proven-feasible upper bound
    assert best_groups is not None, "upper bound must be feasible"
    while left <= right:
        mid = (left + right) // 2
        g = groups_at(times[mid])
        if g is not None:
            best_t, best_groups = times[mid], g
            right = mid - 1
        else:
            left = mid + 1

    # realise job counts at best_t
    caps = _capacities(speeds, best_t, total_jobs)
    part_counts = [0] * m
    remaining = list(demands)
    for i in range(m):
        t = best_groups[i]
        if t is not None:
            take = min(caps[i], remaining[t])
            part_counts[i] = take
            remaining[t] -= take
    # repro: allow[RS004] reason=feasibility test already certified the grouping covers every part's demand
    assert all(r == 0 for r in remaining), "groups failed to cover demands"
    free_counts = [0] * m
    left_free = free_jobs
    for i in range(m):
        spare = caps[i] - part_counts[i]
        take = min(spare, left_free)
        free_counts[i] = take
        left_free -= take
    # repro: allow[RS004] reason=feasibility test already certified total capacity covers part plus free demand
    assert left_free == 0, "total capacity failed to cover free jobs"
    return MultipartiteSolution(
        best_t, tuple(best_groups), tuple(part_counts), tuple(free_counts)
    )


def _check_unary(instance: UniformInstance) -> None:
    """Refuse what the unary algorithm cannot schedule.

    Jobs must be unit, and masks are refused: the capacity argument
    assumes every machine may take every job.
    """
    if not instance.has_unit_jobs:
        raise InvalidInstanceError(
            "the exact multipartite algorithm needs unit jobs (p_j = 1)"
        )
    if instance.has_eligibility:
        raise InvalidInstanceError(
            "the exact multipartite algorithm does not support "
            "machine-eligibility masks"
        )


def _schedule_parts(
    instance: UniformInstance, parts: Sequence[Sequence[int]], free: Sequence[int]
) -> Schedule:
    """Solve the count plan for ``parts`` plus ``free`` and map it to job ids."""
    solution = complete_multipartite_min_time(
        [len(part) for part in parts], instance.speeds, free_jobs=len(free)
    )
    pools = [list(part) for part in parts]
    assignment = [-1] * instance.n
    for i in range(instance.m):
        part = solution.machine_part[i]
        if part is not None:
            for _ in range(solution.part_counts[i]):
                assignment[pools[part].pop()] = i
    free_pool = list(free)
    for i in range(instance.m):
        for _ in range(solution.free_counts[i]):
            assignment[free_pool.pop()] = i
    # repro: allow[RS004] reason=counts invariant: the solution's counts sum to the pool sizes by construction
    assert not any(pools) and not free_pool
    return Schedule(instance, assignment)


def schedule_complete_bipartite_unit(instance: UniformInstance) -> Schedule:
    """Exact schedule for ``Q|G = complete bipartite (+isolated), p_j=1|Cmax``.

    Recognises the instance graph as a complete bipartite core plus
    isolated vertices and solves it exactly with
    :func:`complete_multipartite_min_time`.  Raises
    :exc:`InvalidInstanceError` when the jobs are not unit, the instance
    carries machine-eligibility masks, or the graph is not of this shape
    (use Algorithm 1 for general bipartite graphs).
    """
    _check_unary(instance)
    decomposition = complete_bipartite_parts_with_free(instance.graph)
    if decomposition is None:
        raise InvalidInstanceError(
            "graph is not complete bipartite plus isolated vertices"
        )
    left, right, free = decomposition
    return _schedule_parts(instance, [left, right], free)


def schedule_complete_multipartite_unit(instance: UniformInstance) -> Schedule:
    """Exact schedule for ``Q|G = complete multipartite (+isolated), p_j=1|Cmax``.

    The ``k``-class generalization of
    :func:`schedule_complete_bipartite_unit` (Pikies–Turowski,
    arXiv:2010.13207): recognises the instance graph as structurally
    complete multipartite — regardless of which
    :class:`~repro.graphs.conflict.ConflictGraph` representation stores
    it — and solves exactly with
    :func:`complete_multipartite_min_time`.  Raises
    :exc:`InvalidInstanceError` when the jobs are not unit, the graph is
    not complete multipartite, or the instance carries machine-eligibility
    masks (the unary algorithm's capacity argument assumes every machine
    may take every job).
    """
    _check_unary(instance)
    decomposition = multipartite_decomposition(instance.graph)
    if decomposition is None:
        raise InvalidInstanceError(
            "graph is not complete multipartite plus isolated vertices"
        )
    classes, free = decomposition
    return _schedule_parts(instance, classes, free)
