"""List scheduling primitives.

Algorithm 1 (step 10) and Algorithm 2 (step 4) both finish by "simple list
scheduling" of an *independent* job class onto a dedicated machine group:
jobs are placed one by one on the machine that minimises the resulting
completion time.  Because each group receives jobs from a single color
class, no incompatibility can arise within a group, which is exactly why
the paper can afford plain list scheduling there.

:func:`graph_aware_greedy` is the natural heuristic baseline that works on
the raw problem (any machine, checking conflicts on the fly); it carries no
guarantee and may even fail to complete — experiments record both.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Sequence

from repro import fastpath
from repro.exceptions import InvalidInstanceError
from repro.fastpath import FastpathUnavailable, int_view, kernels_numpy
from repro.scheduling.instance import SchedulingInstance, UniformInstance
from repro.scheduling.schedule import Schedule

__all__ = [
    "assign_group_greedy",
    "schedule_job_classes",
    "graph_aware_greedy",
    "lpt_order",
]


def lpt_order(instance: UniformInstance, jobs: Iterable[int]) -> list[int]:
    """Jobs sorted by non-increasing processing requirement (LPT), ties by id."""
    return sorted(jobs, key=lambda j: (-instance.p[j], j))


def assign_group_greedy(
    instance: UniformInstance,
    jobs: Sequence[int],
    machines: Sequence[int],
) -> dict[int, int]:
    """Greedy list scheduling of ``jobs`` onto the machine subset ``machines``.

    Jobs are processed in LPT order (ties by job id); each goes to the
    machine whose completion time after receiving it is smallest, ties
    to the earliest position in ``machines``.  Returns a ``job ->
    machine`` mapping whose insertion order is the placement order.  The
    caller is responsible for ``jobs`` being an independent set — this
    routine never inspects the graph, mirroring the paper's usage.

    Runs on the :class:`~repro.fastpath.normalize.IntView` of the
    instance: speeds scaled to integers, so every completion-time
    comparison is integer cross-multiplication.  Batches of at least
    :data:`repro.fastpath.GREEDY_NUMPY_MIN_JOBS` jobs go to
    :func:`repro.fastpath.kernels_numpy.assign_group_greedy_numpy` when
    the operands fit ``int64``; smaller batches, and operands past
    ``int64``, run :func:`_greedy_int`.  Both produce the same mapping,
    in the same order.
    """
    view = int_view(instance)
    if len(jobs) >= fastpath.GREEDY_NUMPY_MIN_JOBS:
        try:
            return kernels_numpy.assign_group_greedy_numpy(
                view.p, view.speeds_scaled, jobs, machines
            )
        except FastpathUnavailable:
            pass
    return _greedy_int(view.p, view.speeds_scaled, jobs, machines)


def _greedy_int(
    p: Sequence[int],
    speeds_scaled: Sequence[int],
    jobs: Sequence[int],
    machines: Sequence[int],
) -> dict[int, int]:
    """The integer reference of :func:`assign_group_greedy`.

    The common ``scale`` of the speeds cancels out of every
    completion-time comparison, so it is not even a parameter.  Machines
    are grouped by (integer) speed with one load-min-heap per group: for
    a fixed speed the best candidate is always the least-loaded,
    earliest-listed machine, and the surviving ``g``-way comparison of
    ``(load + p_j) / S`` values is integer cross-multiplication.

    *Runs* of equal-``p_j`` jobs — which LPT order makes contiguous —
    bypass the per-job group scan and place through a machine-level
    **event calendar**: with ``L = lcm(distinct scaled speeds)`` the key
    ``(load + k * p_j) * (L / S_i)`` orders exactly like the rational
    completion time ``(load + k * p_j) / s_i``, each machine's keys
    during a run form an arithmetic progression with constant step
    ``p_j * L / S_i``, and popping the ``(key, rank)``-min heap ``r``
    times reproduces the one-job-at-a-time choices (a non-top machine of
    any speed group is dominated by its group top in this order, so the
    calendar minimum always coincides with the per-group-top scan's
    choice).  Group heaps are rebuilt from the load array only when a
    singleton run follows a batched one.
    """
    if not machines and jobs:
        raise InvalidInstanceError("cannot schedule jobs on an empty machine group")
    count = len(machines)
    speed_by_rank = [speeds_scaled[i] for i in machines]
    loads = [0] * count  # by position ("rank") in `machines`
    # speed -> ranks; each group's heap holds (load, rank, machine id)
    group_ranks: dict[int, list[int]] = {}
    for rank, i in enumerate(machines):
        group_ranks.setdefault(speed_by_rank[rank], []).append(rank)

    def build_groups() -> list[tuple[int, list[tuple[int, int, int]]]]:
        rebuilt: list[tuple[int, list[tuple[int, int, int]]]] = []
        for speed, ranks in group_ranks.items():
            heap = [(loads[r], r, machines[r]) for r in ranks]
            heapq.heapify(heap)
            rebuilt.append((speed, heap))
        return rebuilt

    groups = build_groups()
    groups_stale = False
    mult: list[int] | None = None  # L / S_i per rank, built on first batch
    result: dict[int, int] = {}
    order = sorted(jobs, key=lambda j: (-p[j], j))
    idx = 0
    while idx < len(order):
        p_j = p[order[idx]]
        end = idx
        while end < len(order) and p[order[end]] == p_j:
            end += 1
        run = order[idx:end]
        idx = end
        if len(run) > 1:
            if mult is None:
                common = math.lcm(*group_ranks)
                mult = [common // s for s in speed_by_rank]
            incs = [p_j * m_r for m_r in mult]
            calendar = [((loads[r] + p_j) * mult[r], r) for r in range(count)]
            heapq.heapify(calendar)
            for j in run:
                key, r = calendar[0]
                heapq.heapreplace(calendar, (key + incs[r], r))
                result[j] = machines[r]
                loads[r] += p_j
            groups_stale = True
            continue
        if groups_stale:
            groups = build_groups()
            groups_stale = False
        (j,) = run
        # completion of a group = (load + p_j) / S; compare the running
        # best a/S_best against a'/S' by integer cross-multiplication
        best_heap: list[tuple[int, int, int]] | None = None
        best_a = best_s = 0
        best_rank = -1
        for s, heap in groups:
            load, rank, _ = heap[0]
            a = load + p_j
            if best_heap is None:
                better = True
            else:
                lhs = a * best_s
                rhs = best_a * s
                better = lhs < rhs or (lhs == rhs and rank < best_rank)
            if better:
                best_a, best_s, best_rank, best_heap = a, s, rank, heap
        if best_heap is None:
            raise InvalidInstanceError("cannot list-schedule onto zero machine groups")
        load, rank, i = heapq.heappop(best_heap)
        heapq.heappush(best_heap, (load + p_j, rank, i))
        loads[rank] = load + p_j
        result[j] = i
    return result


def schedule_job_classes(
    instance: UniformInstance,
    groups: Sequence[tuple[Sequence[int], Sequence[int]]],
    check: bool = True,
) -> Schedule:
    """Build a schedule from ``(job_class, machine_group)`` pairs.

    Each class is list-scheduled greedily onto its group; classes must
    partition the job set and groups should be disjoint (each machine then
    holds jobs from a single independent set).
    """
    assignment = [-1] * instance.n
    for jobs, machines in groups:
        placed = assign_group_greedy(instance, list(jobs), list(machines))
        for j, i in placed.items():
            if assignment[j] != -1:
                raise InvalidInstanceError(f"job {j} appears in two classes")
            assignment[j] = i
    missing = [j for j in range(instance.n) if assignment[j] == -1]
    if missing:
        raise InvalidInstanceError(f"jobs missing from all classes: {missing[:10]}")
    return Schedule(instance, assignment, check=check)


def graph_aware_greedy(
    instance: SchedulingInstance,
    order: Sequence[int] | None = None,
) -> Schedule | None:
    """Baseline heuristic: greedy assignment respecting conflicts on the fly.

    Processes jobs (LPT order for uniform instances unless ``order`` is
    given) and puts each on the machine minimising its completion time
    among machines that (a) allow the job and (b) currently hold no
    neighbour of it.  Returns ``None`` when some job has no feasible
    machine left — greedy is not complete for this problem, and the
    experiment suite reports its failure rate.
    """
    if order is None:
        if isinstance(instance, UniformInstance):
            order = lpt_order(instance, range(instance.n))
        else:
            order = list(range(instance.n))
    graph = instance.graph
    machine_jobs: list[set[int]] = [set() for _ in range(instance.m)]
    completions: list[Fraction] = [Fraction(0)] * instance.m
    assignment = [-1] * instance.n
    for j in order:
        neighbors = graph.neighbors(j)
        best_i = None
        best_done: Fraction | None = None
        for i in range(instance.m):
            t = instance.processing_time(i, j)
            if t is None or machine_jobs[i] & neighbors:
                continue
            done = completions[i] + t
            if best_done is None or done < best_done:
                best_done = done
                best_i = i
        if best_i is None:
            return None
        assignment[j] = best_i
        machine_jobs[best_i].add(j)
        completions[best_i] += instance.processing_time(best_i, j)  # type: ignore[operator]
    return Schedule(instance, assignment)
