"""Theorem 4: exact polynomial algorithm for ``Q2|G = bipartite, p_j = 1|Cmax``.

The paper derives the result from the R2 FPTAS (Theorem 22): for every job
split ``(n_1, n_2)``, ``n_1 + n_2 = n``, build the R2 instance with
``p_{i,j} = n_1 n_2 / n_i`` on the *same* graph; its optimum equals
``n_1 n_2`` iff machine 1 can receive exactly ``n_1`` jobs, and running the
FPTAS with ``eps = 1/(n+1)`` separates that case exactly (any other split
costs at least a factor ``1 + 1/n`` more).  The best feasible split then
minimises ``max(n_1/s_1, n_2/s_2)``.

A split ``(n_1, n_2)`` is *feasible* iff some orientation choice of the
components puts exactly ``n_1`` vertices on machine 1; this module also
implements that criterion directly via a subset-sum bitset over component
part sizes (:func:`feasible_first_machine_counts`) — an independent exact
method the tests cross-check against the paper's FPTAS-based one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal

from repro.core.r2_fptas import r2_fptas
from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.graphs.coloring import proper_two_coloring
from repro.graphs.components import connected_components
from repro.graphs.conflict import ConflictGraph
from repro.scheduling.instance import UniformInstance, UnrelatedInstance
from repro.scheduling.schedule import Schedule

__all__ = ["q2_unit_exact", "feasible_first_machine_counts", "q2_split_cost"]


def feasible_first_machine_counts(graph: ConflictGraph) -> set[int]:
    """All ``n_1`` for which machine 1 can receive exactly ``n_1`` jobs.

    Each component contributes either its part-A size or its part-B size to
    machine 1 (both machine job sets must be independent, so a component
    sends one full part each way).  The achievable totals are a subset-sum
    over those ``(a_k, b_k)`` pairs, computed with a bitset convolution.
    """
    coloring = proper_two_coloring(graph)
    mask = 1  # bit t set <=> total t achievable
    for comp in connected_components(graph):
        a = sum(1 for v in comp if coloring[v] == 0)
        b = len(comp) - a
        mask = (mask << a) | (mask << b)
    return {t for t in range(graph.n + 1) if (mask >> t) & 1}


def q2_split_cost(n1: int, n2: int, speeds: tuple[Fraction, ...]) -> Fraction:
    """Makespan of the split ``(n_1, n_2)`` of unit jobs on two machines."""
    return max(Fraction(n1) / speeds[0], Fraction(n2) / speeds[1])


def _splits_via_fptas(instance: UniformInstance) -> set[int]:
    """The paper's split-feasibility test through prepared R2 instances."""
    n = instance.n
    graph = instance.graph
    feasible: set[int] = set()
    # trivial splits: all jobs on one machine need the whole job set
    # independent, i.e. an empty graph
    if graph.edge_count == 0:
        feasible.update({0, n})
    for n1 in range(1, n):
        n2 = n - n1
        times = [[n2] * n, [n1] * n]  # p_{i,j} = n1*n2 / n_i
        prepared = UnrelatedInstance(graph, times)
        schedule = r2_fptas(prepared, eps=Fraction(1, n + 1))
        if schedule.makespan == n1 * n2:
            feasible.add(n1)
    return feasible


def q2_unit_exact(
    instance: UniformInstance,
    method: Literal["subset_sum", "fptas"] = "subset_sum",
) -> Schedule:
    """An optimal schedule for ``Q2|G = bipartite, p_j = 1|Cmax``.

    ``method="fptas"`` follows the paper's Theorem 4 construction verbatim
    (one FPTAS call per split, ``eps = 1/(n+1)``); ``method="subset_sum"``
    decides split feasibility directly and is the practical default.  Both
    are exact and the tests assert they agree.
    """
    if instance.m != 2:
        raise InvalidInstanceError(f"Theorem 4 is for exactly 2 machines, got {instance.m}")
    if not instance.has_unit_jobs:
        raise InvalidInstanceError("Theorem 4 requires unit jobs (p_j = 1)")
    n = instance.n
    if n == 0:
        return Schedule(instance, [])

    if method == "subset_sum":
        feasible = feasible_first_machine_counts(instance.graph)
    elif method == "fptas":
        feasible = _splits_via_fptas(instance)
    else:
        raise InvalidInstanceError(f"unknown method {method!r}")

    if instance.graph.edge_count > 0:
        feasible -= {0, n}  # a machine holding everything needs independence
    if not feasible:
        raise InfeasibleInstanceError("no feasible split of jobs between two machines")

    best_n1 = min(feasible, key=lambda n1: (q2_split_cost(n1, n - n1, instance.speeds), n1))

    # reconstruct orientations achieving best_n1 by greedy DP walk
    coloring = proper_two_coloring(instance.graph)
    comps = connected_components(instance.graph)
    sizes = []
    for comp in comps:
        a = sum(1 for v in comp if coloring[v] == 0)
        sizes.append((a, len(comp) - a))
    # prefix achievability masks
    masks = [1]
    for a, b in sizes:
        masks.append((masks[-1] << a) | (masks[-1] << b))
    target = best_n1
    assignment = [0] * n
    for idx in range(len(comps) - 1, -1, -1):
        a, b = sizes[idx]
        prefix = masks[idx]
        if target - a >= 0 and (prefix >> (target - a)) & 1:
            side_to_m1 = 0
            target -= a
        else:
            side_to_m1 = 1
            target -= b
        for v in comps[idx]:
            assignment[v] = 0 if coloring[v] == side_to_m1 else 1
    # repro: allow[RS004] reason=subset-sum DP certified target reachable; reconstruction consuming it exactly is the DP invariant
    assert target == 0, "reconstruction must consume the whole target"
    return Schedule(instance, assignment)
