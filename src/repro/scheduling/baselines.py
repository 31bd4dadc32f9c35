"""Literature baselines the paper compares against or builds upon.

* :func:`bjw_identical_approx` — the Bodlaender–Jansen–Woeginger [3]
  2-approximation for ``P|G = bipartite|Cmax`` with ``m >= 3``: color
  classes get disjoint machine groups sized by class weight, LPT inside
  each group.
* :func:`two_machine_split` — the trivial feasible schedule putting one
  color class per machine on the two fastest machines (the "any bipartite
  instance is feasible on 2 machines" fact used throughout the paper).
* :func:`unconstrained_lpt` — LPT ignoring the incompatibility graph;
  generally *infeasible* but its makespan lower-bounds what any
  graph-respecting schedule could hope for, quantifying the "price of
  incompatibility" in the experiment tables.
"""

from __future__ import annotations

from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.graphs.coloring import inequitable_two_coloring
from repro.scheduling.instance import UniformInstance, UnrelatedInstance
from repro.scheduling.list_scheduling import assign_group_greedy, schedule_job_classes
from repro.scheduling.schedule import Schedule

__all__ = [
    "bjw_identical_approx",
    "two_machine_split",
    "unconstrained_lpt",
    "r_color_split",
]


def bjw_identical_approx(instance: UniformInstance) -> Schedule:
    """[3]-style 2-approximation for ``P|G = bipartite|Cmax``, ``m >= 3``.

    The inequitable coloring splits jobs into two independent classes; the
    machines split into two groups with sizes proportional to class weight
    (at least one machine each); each class is LPT-scheduled in its group.
    """
    if not instance.is_identical:
        raise InvalidInstanceError("bjw_identical_approx requires identical machines")
    if instance.m < 3:
        raise InvalidInstanceError(
            f"the [3] approximation needs m >= 3, got m={instance.m}"
        )
    class1, class2 = inequitable_two_coloring(instance.graph, instance.p)
    if not class2:  # empty graph side: plain LPT on all machines
        return schedule_job_classes(instance, [(class1, list(range(instance.m)))])
    w1 = sum(instance.p[j] for j in class1)
    w2 = sum(instance.p[j] for j in class2)
    m = instance.m
    m1 = max(1, min(m - 1, round(m * w1 / (w1 + w2))))
    group1 = list(range(m1))
    group2 = list(range(m1, m))
    return schedule_job_classes(instance, [(class1, group1), (class2, group2)])


def two_machine_split(instance: UniformInstance) -> Schedule:
    """Feasible two-machine schedule: one color class per fast machine.

    The heavier class (weighted inequitable coloring) goes to ``M_1``.
    Works for any ``m >= 2``; machines ``M_3..M_m`` stay idle.  This is the
    shape of scheduling the paper's Algorithm 1 falls back to when no
    suitable independent set exists.
    """
    if instance.m < 2 and instance.graph.edge_count > 0:
        raise InvalidInstanceError(
            "bipartite instances with edges need at least two machines"
        )
    if instance.m == 1:
        return schedule_job_classes(instance, [(list(range(instance.n)), [0])])
    class1, class2 = inequitable_two_coloring(instance.graph, instance.p)
    assignment = [0] * instance.n
    for j in class2:
        assignment[j] = 1
    return Schedule(instance, assignment)


def r_color_split(instance: UnrelatedInstance) -> Schedule:
    """Feasible unrelated-machine fallback: one color class per machine.

    Tries every ordered pair of distinct machines ``(i1, i2)`` for the
    two color classes (plus single-machine placements when a class is
    empty or the graph is edgeless) and keeps the best, skipping pairs
    with forbidden assignments.  Always feasible when some pair works —
    the ``R`` analogue of :func:`two_machine_split` and the natural
    fallback for ``Rm|G = bipartite|Cmax`` with ``m >= 3``, where
    Theorem 24 rules out any reasonable guarantee.

    Runs in ``O(m^2 + m n)`` (class loads per machine are precomputed,
    as integer sums on the instance's tick grid).
    """
    n, m = instance.n, instance.m
    if n == 0:
        return Schedule(instance, [])
    class1, class2 = inequitable_two_coloring(instance.graph)
    # loads[i][c] = ticks of class c on machine i, None if forbidden; the
    # one positive scale makes tick sums compare as the times do
    loads = [[instance.load_ticks(i, cls) for cls in (class1, class2)] for i in range(m)]

    best: tuple[int, int, int] | None = None
    if not class2 or not class1:
        cls_idx = 0 if class1 else 1
        for i in range(m):
            t = loads[i][cls_idx]
            if t is not None and (best is None or t < best[0]):
                best = (t, i, i)
    else:
        for i1 in range(m):
            t1 = loads[i1][0]
            if t1 is None:
                continue
            for i2 in range(m):
                t2 = loads[i2][1]
                if i1 == i2 or t2 is None:
                    continue
                span = max(t1, t2)
                if best is None or span < best[0]:
                    best = (span, i1, i2)
    if best is None:
        raise InfeasibleInstanceError(
            "no machine pair can host the two color classes "
            "(forbidden assignments block every split)"
        )
    _, i1, i2 = best
    assignment = [i1] * n
    for j in class2:
        assignment[j] = i2
    return Schedule(instance, assignment)


def unconstrained_lpt(instance: UniformInstance) -> Schedule:
    """LPT on all machines ignoring the graph (``check=False``).

    The returned schedule is usually infeasible; its makespan is a valid
    *comparison point* (it lower-bounds nothing formally, but empirically
    tracks the graph-free optimum within the classical LPT factor).
    """
    placed = assign_group_greedy(instance, list(range(instance.n)), list(range(instance.m)))
    assignment = [placed[j] for j in range(instance.n)]
    return Schedule(instance, assignment, check=False)
