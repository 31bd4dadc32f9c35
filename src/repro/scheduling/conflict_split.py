"""Conflict-graph coloring split: schedule by optimal greedy coloring.

The general-family fallback the engine dispatches to when no paper
algorithm applies (non-bipartite conflict graphs, machine-eligibility
masks).  The idea, following Furmańczyk et al.'s block-graph treatment
(arXiv:2207.05868): color the conflict graph, then distribute color
classes — which are independent sets — over the machines.

Coloring runs greedily along a *maximum cardinality search* (MCS) order.
On chordal graphs (every block graph is chordal) the reverse MCS order
is a perfect elimination order, so greedy coloring is an **optimal**
coloring; on complete multipartite graphs greedy is optimal in any
order.  The produced color count is therefore an exact feasibility
certificate on those families: a conflict graph with chromatic number
``k`` needs at least ``k`` machines, whatever the speeds.

Two assignment modes:

* no eligibility masks (uniform, all machines usable by every job):
  whole color classes map to machines, largest total work to the
  fastest machine, then jobs rebalance one at a time onto the emptiest
  compatible machine;
* eligibility masks or unrelated forbidden pairs:
  :func:`~repro.scheduling.list_scheduling.graph_aware_greedy` in
  coloring order, minimising completion time over machines that allow
  the job and hold none of its neighbours.

Both compare completion times as integers: machine ``i`` with ``load``
units of work ends at ``load * u_i`` ticks on the speeds'
:func:`~repro.utils.rationals.speed_grid`, and the greedy runs on the
instance's :meth:`~repro.scheduling.instance.SchedulingInstance.grid`.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import InfeasibleInstanceError
from repro.graphs.conflict import ConflictGraph
from repro.scheduling.instance import SchedulingInstance, UniformInstance
from repro.scheduling.list_scheduling import graph_aware_greedy
from repro.scheduling.schedule import Schedule
from repro.utils.rationals import speed_grid

__all__ = [
    "mcs_order",
    "greedy_coloring",
    "conflict_color_split",
]


def mcs_order(graph: ConflictGraph) -> list[int]:
    """Maximum cardinality search order of the vertices.

    Repeatedly picks the vertex with the most already-chosen neighbours
    (ties to the lowest vertex id, so the order is deterministic).  The
    reverse of this order is a perfect elimination order iff the graph
    is chordal — which makes greedy coloring along it optimal there.
    """
    n = graph.n
    weight = [0] * n
    chosen = [False] * n
    order: list[int] = []
    for _ in range(n):
        best = -1
        for v in range(n):
            if not chosen[v] and (best == -1 or weight[v] > weight[best]):
                best = v
        chosen[best] = True
        order.append(best)
        for u in graph.neighbors(best):
            if not chosen[u]:
                weight[u] += 1
    return order


def greedy_coloring(
    graph: ConflictGraph, order: Sequence[int] | None = None
) -> list[int]:
    """Greedy proper coloring along ``order`` (MCS order by default).

    Returns ``color[v]`` per vertex; colors are ``0..k-1``.  Optimal on
    chordal graphs (with the MCS order) and on complete multipartite
    graphs (any order); at most ``max_degree + 1`` colors in general.
    """
    if order is None:
        order = mcs_order(graph)
    color = [-1] * graph.n
    for v in order:
        used = {color[u] for u in graph.neighbors(v) if color[u] != -1}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return color


def _split_classes_uniform(
    instance: UniformInstance, color: list[int], k: int
) -> Schedule:
    """Color classes onto machines: heaviest class to the fastest machine,
    then per-job rebalancing onto emptier compatible machines."""
    classes: list[list[int]] = [[] for _ in range(k)]
    for j in range(instance.n):
        classes[color[j]].append(j)
    # heaviest class first; speeds are already non-increasing, so machine
    # index == speed rank
    by_weight = sorted(
        range(k), key=lambda c: (-sum(instance.p[j] for j in classes[c]), c)
    )
    assignment = [-1] * instance.n
    loads = [0] * instance.m
    machine_class = [-1] * instance.m
    for rank, c in enumerate(by_weight):
        for j in classes[c]:
            assignment[j] = rank
            loads[rank] += instance.p[j]
        machine_class[rank] = c
    # rebalance: spare machines (rank >= k) may take jobs from loaded
    # machines one class each — move whole classes only when it helps is
    # overkill; instead move single jobs to empty machines while the move
    # strictly lowers the makespan estimate
    if k < instance.m:
        _, unit = speed_grid(instance.speeds)
        changed = True
        while changed:
            changed = False
            worst = max(range(instance.m), key=lambda i: loads[i] * unit[i])
            if loads[worst] == 0:
                break
            movable = [j for j in range(instance.n) if assignment[j] == worst]
            for i in range(instance.m):
                if loads[i] > 0 or i == worst:
                    continue
                # an empty machine can adopt any single job (independent
                # sets of size one), preferring the longest one
                j = max(movable, key=lambda jj: instance.p[jj])
                before = loads[worst] * unit[worst]
                after_worst = (loads[worst] - instance.p[j]) * unit[worst]
                after_new = instance.p[j] * unit[i]
                if max(after_worst, after_new) < before and len(movable) > 1:
                    assignment[j] = i
                    loads[i] += instance.p[j]
                    loads[worst] -= instance.p[j]
                    changed = True
                break
    return Schedule(instance, assignment)


def conflict_color_split(instance: SchedulingInstance) -> Schedule:
    """Schedule any conflict-graph instance via optimal greedy coloring.

    Colors the conflict graph along an MCS order and distributes the
    color classes over the machines.  Raises
    :exc:`~repro.exceptions.InfeasibleInstanceError` when the coloring
    needs more colors than there are machines — an exact infeasibility
    proof on chordal (hence block) and complete multipartite graphs,
    conservative on other families.

    No approximation guarantee is claimed; this is the engine's
    feasibility-first fallback for conflict-graph families and
    eligibility-masked instances no paper algorithm covers.
    """
    order = mcs_order(instance.graph)
    color = greedy_coloring(instance.graph, order)
    k = max(color, default=-1) + 1
    if k > instance.m:
        raise InfeasibleInstanceError(
            f"conflict graph needs {k} machines (greedy coloring classes), "
            f"got {instance.m}"
        )
    uniform_unmasked = (
        isinstance(instance, UniformInstance) and not instance.has_eligibility
    )
    if uniform_unmasked:
        return _split_classes_uniform(instance, color, k)
    schedule = graph_aware_greedy(instance, order)
    if schedule is None:
        raise InfeasibleInstanceError(
            "greedy assignment in coloring order left a job with no machine: "
            "every eligible machine already holds a conflicting job"
        )
    return schedule
