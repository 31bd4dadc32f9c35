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
from typing import Iterable, Sequence

from repro.exceptions import InvalidInstanceError
from repro.scheduling.instance import SchedulingInstance, UniformInstance
from repro.scheduling.schedule import Schedule
from repro.utils.rationals import speed_grid

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

    Runs on the integer time grid of the speeds
    (:func:`repro.utils.rationals.speed_grid`): a unit of work on
    machine ``i`` takes ``u_i`` ticks, so machine ``i`` with ``load``
    units completes at ``load * u_i`` ticks and every completion-time
    comparison is between two integers.  Machines are grouped by
    ``u_i`` with one load-min-heap per group: for a fixed speed the best
    candidate is always the least-loaded, earliest-listed machine, so a
    job compares only the ``(load + p_j) * u_i`` of each group's top.

    *Runs* of equal-``p_j`` jobs — which LPT order makes contiguous —
    bypass the per-job group scan and place through a machine-level
    **event calendar**: each machine's completion times during a run
    form an arithmetic progression with step ``p_j * u_i``, and popping
    the ``(completion, rank)``-min heap ``r`` times reproduces the
    one-job-at-a-time choices (a non-top machine of any speed group is
    dominated by its group top in this order, so the calendar minimum
    always coincides with the per-group-top scan's choice).  Group heaps
    are rebuilt from the load array only when a singleton run follows a
    batched one.
    """
    if not machines and jobs:
        raise InvalidInstanceError("cannot schedule jobs on an empty machine group")
    _, unit_times = speed_grid(instance.speeds)
    p = instance.p
    count = len(machines)
    unit_by_rank = [unit_times[i] for i in machines]
    loads = [0] * count  # by position ("rank") in `machines`
    # unit time -> ranks; each group's heap holds (load, rank, machine id)
    group_ranks: dict[int, list[int]] = {}
    for rank, u in enumerate(unit_by_rank):
        group_ranks.setdefault(u, []).append(rank)

    def build_groups() -> list[tuple[int, list[tuple[int, int, int]]]]:
        rebuilt: list[tuple[int, list[tuple[int, int, int]]]] = []
        for u, ranks in group_ranks.items():
            heap = [(loads[r], r, machines[r]) for r in ranks]
            heapq.heapify(heap)
            rebuilt.append((u, heap))
        return rebuilt

    groups = build_groups()
    groups_stale = False
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
            steps = [p_j * u for u in unit_by_rank]
            calendar = [((loads[r] + p_j) * unit_by_rank[r], r) for r in range(count)]
            heapq.heapify(calendar)
            for j in run:
                done, r = calendar[0]
                heapq.heapreplace(calendar, (done + steps[r], r))
                result[j] = machines[r]
                loads[r] += p_j
            groups_stale = True
            continue
        if groups_stale:
            groups = build_groups()
            groups_stale = False
        (j,) = run
        best_heap: list[tuple[int, int, int]] | None = None
        best_done = 0
        best_rank = -1
        for u, heap in groups:
            load, rank, _ = heap[0]
            done = (load + p_j) * u
            if best_heap is None or done < best_done or (
                done == best_done and rank < best_rank
            ):
                best_done, best_rank, best_heap = done, rank, heap
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
    return Schedule(instance, assignment)


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
    _, times = instance.grid()
    machine_jobs: list[set[int]] = [set() for _ in range(instance.m)]
    completions = [0] * instance.m  # in ticks
    assignment = [-1] * instance.n
    for j in order:
        neighbors = graph.neighbors(j)
        best_i = None
        best_done = 0
        for i in range(instance.m):
            t = times[i][j]
            if t is None or machine_jobs[i] & neighbors:
                continue
            done = completions[i] + t
            if best_i is None or done < best_done:
                best_done = done
                best_i = i
        if best_i is None:
            return None
        assignment[j] = best_i
        machine_jobs[best_i].add(j)
        completions[best_i] = best_done
    return Schedule(instance, assignment)
