"""Exact optimum by branch-and-bound.

Ground truth for the experiment suite at small ``n``: enumerates machine
assignments job by job, pruning branches whose makespan already meets the
incumbent and skipping conflict-violating placements.  Exponential — the
problem is strongly NP-hard even without the graph — but comfortably exact
for the oracle sizes used in tests (``n <= ~16``).

Algorithm 1 also calls this directly for its ``sum p_j <= 16`` base case
(step 1; :mod:`repro.core.sqrt_approx` explains the threshold).
"""

from __future__ import annotations

from fractions import Fraction

from repro.exceptions import BoundExcludedError, InfeasibleInstanceError
from repro.scheduling.instance import SchedulingInstance, UniformInstance
from repro.scheduling.schedule import Schedule

__all__ = ["brute_force_optimal", "brute_force_makespan"]


def _job_order(instance: SchedulingInstance) -> list[int]:
    """Branch on big jobs first (uniform) or high-degree jobs first."""
    if isinstance(instance, UniformInstance):
        return sorted(range(instance.n), key=lambda j: (-instance.p[j], -instance.graph.degree(j)))
    return sorted(range(instance.n), key=lambda j: -instance.graph.degree(j))


def brute_force_optimal(
    instance: SchedulingInstance,
    upper_bound: Fraction | None = None,
) -> Schedule:
    """An optimal schedule, or :exc:`InfeasibleInstanceError`.

    ``upper_bound`` (exclusive-ish: only strictly better schedules are
    explored once a schedule at the bound is found) can seed pruning with a
    heuristic solution's makespan.  The two empty outcomes are
    distinguishable: with no ``upper_bound`` an empty search means the
    instance is infeasible (:exc:`InfeasibleInstanceError`); with one it
    only means no schedule is *strictly better* than the bound, reported
    as :exc:`BoundExcludedError` so incumbent-seeding callers don't
    misreport feasible instances as infeasible.
    """
    n, m = instance.n, instance.m
    if n == 0:
        return Schedule(instance, [])
    order = _job_order(instance)
    graph = instance.graph

    # processing times in ticks of 1 / scale; None marks forbidden pairs
    scale, times = instance.grid()

    best_assignment: list[int] | None = None
    best_makespan: Fraction | int | None = (
        None if upper_bound is None else upper_bound * scale
    )
    completions: list[int] = [0] * m
    machine_jobs: list[set[int]] = [set() for _ in range(m)]
    assignment: list[int] = [-1] * n

    def place(pos: int) -> None:
        nonlocal best_assignment, best_makespan
        if pos == n:
            span = max(completions)
            if best_makespan is None or span < best_makespan:
                best_makespan = span
                best_assignment = assignment.copy()
            return
        j = order[pos]
        neighbors = graph.neighbors(j)
        # machine choice order: emptier machines first tends to find good
        # incumbents early
        for i in sorted(range(m), key=lambda i: completions[i]):
            t = times[i][j]
            if t is None or machine_jobs[i] & neighbors:
                continue
            if not machine_jobs[i] and _earlier_equivalent_empty(i):
                # an identical empty machine was already branched on
                continue
            done = completions[i] + t
            if best_makespan is not None and done >= best_makespan:
                continue
            completions[i] += t
            machine_jobs[i].add(j)
            assignment[j] = i
            place(pos + 1)
            completions[i] -= t
            machine_jobs[i].remove(j)
            assignment[j] = -1

    def _earlier_equivalent_empty(i: int) -> bool:
        # two empty machines are interchangeable iff they process every job
        # in the same time; branching on the first of an equivalence class
        # suffices (iteration over empty machines is stable by index).
        for other in range(i):
            if machine_jobs[other]:
                continue
            if all(times[other][j] == times[i][j] for j in range(n)):
                return True
        return False

    place(0)
    if best_assignment is None:
        if upper_bound is not None:
            raise BoundExcludedError(
                f"no schedule with makespan < {upper_bound}; the seeded "
                "upper bound excluded the whole search space (instance "
                "feasibility is undetermined)"
            )
        raise InfeasibleInstanceError("no feasible schedule exists")
    return Schedule(instance, best_assignment)


def brute_force_makespan(instance: SchedulingInstance) -> Fraction:
    """Makespan of an optimal schedule (:func:`brute_force_optimal`)."""
    return brute_force_optimal(instance).makespan
