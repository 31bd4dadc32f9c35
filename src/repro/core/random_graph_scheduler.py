"""Algorithm 2: scheduling unit jobs whose incompatibility graph is a
Gilbert random bipartite graph (Section 4.1, Theorem 19).

The algorithm itself is deterministic and graph-agnostic:

1. take an inequitable 2-coloring ``(V'_1, V'_2)``;
2. compute ``C**max`` — the least time whose rounded-down capacities cover
   all ``n`` unit jobs;
3. find the smallest prefix ``M_2..M_k`` whose capacity reaches
   ``|V'_2| / 2`` (take ``k = m`` if none does);
4. list schedule ``V'_2`` on ``M_2..M_k`` and ``V'_1`` on
   ``M_1, M_{k+1}..M_m``.

Theorem 19: when the graph is drawn from ``G(n, n, p(n))`` (any monotone
regime of ``p``), the makespan is a.a.s. at most ``2 C*max``.  The key
probabilistic facts — ``|V'_2|`` is tiny for sparse graphs (Corollary 11,
Lemma 12) and ``|V'_2| <= 1.6 (n - alpha(G))`` around ``p = a/n``
(Lemmas 13–14) — are reproduced in :mod:`repro.random_graphs`.
"""

from __future__ import annotations

from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.graphs.coloring import inequitable_two_coloring
from repro.scheduling.bounds import min_cover_time
from repro.scheduling.instance import UniformInstance
from repro.scheduling.list_scheduling import schedule_job_classes
from repro.scheduling.schedule import Schedule
from repro.utils.rationals import floor_fraction

__all__ = ["random_graph_schedule", "random_graph_schedule_balanced"]


def _base_case(instance: UniformInstance) -> Schedule | None:
    """Algorithm 2's refusals and the instances it answers before step 1.

    Raises :exc:`InvalidInstanceError` for non-unit jobs (the paper states
    Algorithm 2 for ``p_j = 1``) and :exc:`InfeasibleInstanceError` when a
    single machine faces an edge.  Returns the schedule for ``n == 0`` and
    ``m == 1``, and ``None`` for every other instance.
    """
    if not instance.has_unit_jobs:
        raise InvalidInstanceError("Algorithm 2 requires unit jobs (p_j = 1)")
    if instance.n == 0:
        return Schedule(instance, [])
    if instance.m == 1:
        if instance.graph.edge_count > 0:
            raise InfeasibleInstanceError(
                "a single machine cannot separate incompatible jobs"
            )
        return Schedule(instance, [0] * instance.n)
    return None


def _machine_groups(
    instance: UniformInstance, v2_size: int
) -> tuple[list[int], list[int]]:
    """Steps 2-3: the machine groups ``(M_1 + M_{k+1}..M_m, M_2..M_k)``.

    ``v2_size`` is ``|V'_2|``; ``k`` is the least index whose prefix
    ``M_2..M_k`` reaches capacity ``|V'_2| / 2`` at ``C**max``.
    """
    m = instance.m
    # step 2: least time whose rounded-down capacities cover all n jobs
    cstar2 = min_cover_time(instance.speeds, instance.n)
    caps = [floor_fraction(s * cstar2) for s in instance.speeds]

    # step 3: least k <= m with capacity(M_2..M_k) >= |V'_2| / 2
    k = m
    prefix = 0
    for i in range(1, m):  # 0-based machine i == 1-based machine i+1
        prefix += caps[i]
        if 2 * prefix >= v2_size:
            k = i + 1
            break
    return [0] + list(range(k, m)), list(range(1, k))


def random_graph_schedule(instance: UniformInstance) -> Schedule:
    """Run Algorithm 2 on a unit-job uniform instance.

    Raises :exc:`InvalidInstanceError` for non-unit jobs (the paper states
    Algorithm 2 for ``p_j = 1``) and :exc:`InfeasibleInstanceError` when a
    single machine faces an edge.
    """
    base = _base_case(instance)
    if base is not None:
        return base
    class1, class2 = inequitable_two_coloring(instance.graph)
    group_v1, group_v2 = _machine_groups(instance, len(class2))
    return schedule_job_classes(instance, [(class1, group_v1), (class2, group_v2)])


def random_graph_schedule_balanced(instance: UniformInstance) -> Schedule:
    """Algorithm 2 with the Section 6 isolated-job improvement.

    The paper's open-problems section observes that for ``p(n) = o(1/n)``
    Algorithm 2 "could be improved, by better assigning the isolated jobs
    and using them to balance the schedule": plain Algorithm 2 treats
    isolated vertices as part of ``V'_1`` and so denies them to the
    ``V'_2`` machine group.  This variant

    1. runs Algorithm 2's split only on the *non-isolated* vertices, then
    2. places each isolated job on whichever machine (any group — the
       job conflicts with nothing) finishes it earliest.

    In the sparse regime almost all jobs are isolated, so step 2 degrades
    to plain list scheduling over all machines — asymptotically optimal
    for unit jobs — while the a.a.s. ``2 C*max`` guarantee of Theorem 19
    is kept: the class split is unchanged and step 2 never assigns worse
    than Algorithm 2's choice for the same job.  Experiment E16 measures
    the improvement.
    """
    base = _base_case(instance)
    if base is not None:
        return base
    n, m = instance.n, instance.m
    graph = instance.graph
    isolated = [v for v in range(n) if graph.degree(v) == 0]
    active = [v for v in range(n) if graph.degree(v) > 0]
    class1, class2 = inequitable_two_coloring(graph, vertices=active)
    group_v1, group_v2 = _machine_groups(instance, len(class2))

    assignment = [-1] * n
    loads = [0] * m  # unit jobs: integer loads

    def place(jobs: list[int], machines: list[int]) -> None:
        for j in jobs:
            best = min(
                machines,
                key=lambda i: ((loads[i] + 1) / instance.speeds[i], i),
            )
            assignment[j] = best
            loads[best] += 1

    place(class1, group_v1)
    place(class2, group_v2)
    # isolated jobs conflict with nothing: balance across all machines
    place(isolated, list(range(m)))
    return Schedule(instance, assignment)
