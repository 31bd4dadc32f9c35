"""Algorithm 1: the ``sqrt(sum p_j)``-approximation for ``Q|G=bipartite|Cmax``.

Theorem 9 proves the bound; Theorem 8 shows no ``O(n^{1/2 - eps})`` factor
is achievable, so (for unit jobs, where ``sum p_j = n``) the guarantee is
asymptotically best possible.

Structure, following the paper line by line:

1. ``sum p_j <= 16`` -> brute force (exact).  The paper writes the
   threshold as 4, but its Theorem 9 proof twice argues "in time
   ``4 C**max`` machine ``M_1`` can do more than its proper share",
   which bounds the makespan by ``max(4, sqrt(sum p_j)) * C**max`` —
   equal to the claimed ``sqrt(sum p_j)`` factor only once
   ``sum p_j >= 16``.  (Exhaustive probing at the paper's threshold
   finds genuine counterexamples, e.g. 6 unit jobs with one conflict
   edge on 3 identical machines: Algorithm 1 as written returns 5
   while ``sqrt(6) * C*max ≈ 4.9``.)  Raising the constant-size base
   case to 16 — solved exactly on the ``min(m, n)`` fastest machines —
   restores the stated guarantee without touching the asymptotics.
2. ``I`` = maximum-weight independent set containing every *heavy* job
   (``p_j >= sqrt(sum p_j)``, compared exactly as ``p_j^2 >= sum p_j``);
   ``I`` fails to exist iff the heavy jobs are not pairwise independent.
3. ``S1`` = two-fastest-machines schedule from Algorithm 5 with ``eps = 1``
   (a 2-approximation on ``{M_1, M_2}``).  Built last, after ``S2``, and
   only when ``S2`` is missing or ``S2``'s makespan is at least the
   two-machine bound ``max(C_2, p_max / s_1)``, where ``C_2`` is the least
   ``T`` with ``floor(s_1 T) + floor(s_2 T) >= sum p_j``.  Jobs have
   integer sizes, so ``M_i`` carries at most ``floor(s_i T)`` units by time
   ``T`` and every schedule on ``M_1, M_2`` alone, ``S1`` included, takes
   at least that bound.
4. If ``I`` exists (and ``m >= 3`` so a capacity schedule makes sense):
   compute the capacity lower bound ``C**max`` (all machines cover
   ``sum p_j``; machines ``M_2..`` cover ``w(J \\ I)`` — valid because at
   most ``w(I)`` weight can sit on one machine; ``M_1`` covers ``p_max``),
   then cut machines into three groups by rounded-down capacity and list
   schedule:  the heavier inequitable color class ``J'_1`` of ``J \\ I`` on
   ``M_2..M_{k'}``, the lighter class ``J'_2`` on ``M_{k'+1}..M_k`` and
   ``I`` on ``M_1`` plus the leftover slow machines.
5. Return the better of ``S1`` and ``S2``; ``S2`` wins only when strictly
   smaller.  A skipped ``S1`` is at least the two-machine bound, which
   ``S2`` is strictly below, so step 5 would have returned ``S2`` anyway:
   skipping never changes the answer.

Eligibility masks (``UniformInstance.eligible``) are not part of the
paper's model.  :func:`sqrt_approx_schedule` and the ablation harness
refuse them with :exc:`~repro.exceptions.InvalidInstanceError`; the
engine never routes them here (``supports_eligibility=False``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal

from repro.core.r2_fptas import r2_fptas
from repro.core.r2_two_approx import r2_two_approx
from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.graphs.coloring import inequitable_two_coloring
from repro.graphs.independent_set import max_weight_independent_set_containing
from repro.scheduling.bounds import (
    min_cover_time,
    pmax_lower_bound,
    uniform_capacity_lower_bound,
)
from repro.scheduling.brute_force import brute_force_optimal
from repro.scheduling.instance import UniformInstance
from repro.scheduling.list_scheduling import schedule_job_classes
from repro.scheduling.schedule import Schedule
from repro.utils.rationals import floor_fraction

__all__ = ["SqrtApproxResult", "sqrt_approx_schedule", "satisfies_sqrt_guarantee"]


@dataclass(frozen=True)
class SqrtApproxResult:
    """Outcome of Algorithm 1 with its intermediate artefacts exposed.

    ``schedule`` is the returned (better) schedule; ``s1`` / ``s2`` are the
    candidates (``s2`` is ``None`` when no suitable independent set exists
    or ``m < 3``; ``s1`` is ``None`` when it was skipped because it could
    not win, and ``chosen`` is then ``"s2"``); ``capacity_bound`` is
    ``C**max`` (``None`` when ``S2`` was not built); ``chosen`` names the
    winner.
    """

    schedule: Schedule
    s1: Schedule | None
    s2: Schedule | None
    capacity_bound: Fraction | None
    chosen: Literal["s1", "s2", "brute_force"]
    independent_set: frozenset[int] | None


def _brute_force_fastest(instance: UniformInstance) -> Schedule:
    """Exact optimum using only the ``min(m, n)`` fastest machines.

    Valid because some optimal schedule never touches more machines than
    jobs, and swapping a used machine for a faster idle one only helps.
    """
    m_eff = min(instance.m, instance.n)
    if m_eff == instance.m:
        return brute_force_optimal(instance)
    sub = UniformInstance(instance.graph, instance.p, instance.speeds[:m_eff])
    best = brute_force_optimal(sub)
    return Schedule(instance, best.assignment)


def _base_case(instance: UniformInstance) -> SqrtApproxResult | None:
    """Algorithm 1's refusals and the instances it answers before step 2.

    Raises :exc:`InvalidInstanceError` on eligibility masks (Algorithm 1
    is stated for unrestricted uniform machines: its base case, ``S1``
    and ``S2`` all place jobs without reading masks) and
    :exc:`InfeasibleInstanceError` when one machine faces an edge.
    Returns the result for ``n == 0``, ``m == 1`` and step 1's
    ``sum p_j <= 16``, and ``None`` for every other instance.
    """
    if instance.has_eligibility:
        raise InvalidInstanceError(
            "Algorithm 1 cannot honour machine-eligibility masks"
        )
    n, m = instance.n, instance.m
    if n == 0:
        empty = Schedule(instance, [])
        return SqrtApproxResult(empty, empty, None, None, "s1", None)
    if m == 1:
        if instance.graph.edge_count > 0:
            raise InfeasibleInstanceError(
                "a single machine cannot separate incompatible jobs"
            )
        all_on_one = Schedule(instance, [0] * n)
        return SqrtApproxResult(all_on_one, all_on_one, None, None, "s1", None)
    # step 1: small instances exactly (threshold 16, not the paper's 4 —
    # see the module docstring).  Only the min(m, n) fastest machines
    # can matter: moving any machine's whole job set to an unused faster
    # machine never increases the makespan or breaks independence.
    if instance.total_p <= 16:
        best = _brute_force_fastest(instance)
        return SqrtApproxResult(best, best, None, None, "brute_force", None)
    return None


def _heavy_jobs(instance: UniformInstance) -> list[int]:
    """Step 2's heavy jobs, ``p_j >= sqrt(sum p_j)``, compared exactly as
    ``p_j^2 >= sum p_j``."""
    total = instance.total_p
    return [j for j in range(instance.n) if instance.p[j] * instance.p[j] >= total]


def _two_fastest_schedule(
    instance: UniformInstance, s1_solver: Literal["fptas", "two_approx"]
) -> Schedule:
    """Schedule everything on ``M_1, M_2`` via Algorithm 5 (eps=1) or Alg. 4."""
    r2 = instance.to_unrelated([0, 1])
    if s1_solver == "fptas":
        two_machine = r2_fptas(r2, eps=1)
    else:
        two_machine = r2_two_approx(r2)
    # machine ids coincide (0 and 1), so the assignment lifts directly
    return Schedule(instance, two_machine.assignment)


def _capacity_schedule(
    instance: UniformInstance,
    independent: set[int],
    color: Callable[[list[int]], tuple[list[int], list[int]]],
) -> tuple[Schedule, Fraction]:
    """Steps 5-10 of Algorithm 1: ``(S2, C**max)`` for ``m >= 3``.

    ``color(rest)`` splits ``J \\ I`` into the class ``J'_1`` placed on
    ``M_2..M_{k'}`` and the class ``J'_2`` placed on ``M_{k'+1}..M_k``:
    step 8's inequitable colouring in Algorithm 1, another proper
    colouring in its ablations.
    """
    m = instance.m
    rest = [j for j in range(instance.n) if j not in independent]
    if not rest:
        # J \ I is empty, i.e. the graph has no edges at all.  The
        # paper's step 7 would still reserve M_2..M_k for the empty
        # rest set and leave them idle (which can breach the Theorem 9
        # bound at small sum p_j); with nothing to separate, step 10's
        # "schedule I on M_1, M_{k+1}..M_m" degenerates to list
        # scheduling on every machine.
        cap_bound = uniform_capacity_lower_bound(instance)
        s2 = schedule_job_classes(instance, [(sorted(independent), list(range(m)))])
        return s2, cap_bound
    rest_weight = sum(instance.p[j] for j in rest)
    # step 5: C**max — smallest time whose rounded-down capacities
    # satisfy all three covering conditions
    cap_bound = uniform_capacity_lower_bound(instance, rest_weight)
    caps = [floor_fraction(s * cap_bound) for s in instance.speeds]

    # step 7 (1-based k >= 3): M_2..M_k cover J \ I
    prefix = 0
    k = m  # fallback; condition (b) of C** guarantees coverage by M_2..M_m
    for i in range(1, m):  # 0-based machine i is 1-based machine i+1
        prefix += caps[i]
        if prefix >= rest_weight and (i + 1) >= 3:
            k = i + 1
            break

    # step 8: the caller's colouring of J \ I
    class1, class2 = color(rest)
    w_class1 = sum(instance.p[j] for j in class1)

    # step 9 (1-based k' in [2, k]): largest prefix of M_2.. within w(J'_1)
    k_prime = 2
    prefix = 0
    for i in range(1, k):  # 1-based machines 2..k
        prefix += caps[i]
        if prefix <= w_class1:
            k_prime = i + 1
        else:
            break

    # step 10: three machine groups (convert to 0-based ids)
    group_class1 = list(range(1, k_prime))          # M_2 .. M_{k'}
    group_class2 = list(range(k_prime, k))          # M_{k'+1} .. M_k
    group_ind = [0] + list(range(k, m))             # M_1, M_{k+1} .. M_m
    # when J'_2 is non-empty, capacities of M_2..M_k strictly exceed
    # w(J'_1) (they cover all of J \ I and every p_j >= 1), so k' < k
    # and the group exists, whichever colouring the caller passed
    # repro: allow[RS004] reason=Theorem 11 invariant: capacities of M_2..M_k exceed w(J'_1), so k' < k whenever J'_2 is non-empty
    assert not class2 or group_class2, "k' = k with a non-empty J'_2"
    s2 = schedule_job_classes(
        instance,
        [
            (class1, group_class1),
            (class2, group_class2),
            (sorted(independent), group_ind),
        ],
    )
    return s2, cap_bound


def sqrt_approx_schedule(
    instance: UniformInstance,
    s1_solver: Literal["fptas", "two_approx"] = "fptas",
) -> SqrtApproxResult:
    """Run Algorithm 1 and return the schedule plus diagnostics.

    ``s1_solver`` selects how the two-machine candidate ``S1`` is built:
    ``"fptas"`` is the paper's choice (Algorithm 5 with ``eps = 1``);
    ``"two_approx"`` (Algorithm 4) has the identical guarantee at ``O(n)``
    cost and is preferable for very large instances.
    """
    base = _base_case(instance)
    if base is not None:
        return base

    # step 2: the distinguished independent set
    independent = max_weight_independent_set_containing(
        instance.graph, instance.p, _heavy_jobs(instance)
    )

    s2: Schedule | None = None
    cap_bound: Fraction | None = None
    if independent is not None and instance.m >= 3:
        # step 8 colours J \ I inequitably; the lambda looks the colouring
        # up in this module when it runs, so a rebound name (e2ebench's
        # tracer rebinds it) is the one called
        s2, cap_bound = _capacity_schedule(
            instance,
            independent,
            lambda rest: inequitable_two_coloring(instance.graph, instance.p, rest),
        )

    independent_set = frozenset(independent) if independent is not None else None
    # step 3, last: the two-machine candidate, only when it can win.  No
    # schedule on M_1, M_2 alone beats this bound, so an S2 strictly below
    # it is what step 5 returns whatever S1 would be.
    if s2 is not None and s2.makespan < max(
        min_cover_time(instance.speeds[:2], instance.total_p),
        pmax_lower_bound(instance),
    ):
        return SqrtApproxResult(s2, None, s2, cap_bound, "s2", independent_set)
    s1 = _two_fastest_schedule(instance, s1_solver)

    # step 5: S2 only when strictly smaller
    if s2 is not None and s2.makespan < s1.makespan:
        chosen: Literal["s1", "s2"] = "s2"
        schedule = s2
    else:
        chosen = "s1"
        schedule = s1
    return SqrtApproxResult(
        schedule=schedule,
        s1=s1,
        s2=s2,
        capacity_bound=cap_bound,
        chosen=chosen,
        independent_set=independent_set,
    )


def satisfies_sqrt_guarantee(
    result: SqrtApproxResult,
    optimum: Fraction,
    total_p: int,
) -> bool:
    """Exact check of Theorem 9: ``Cmax <= sqrt(sum p_j) * C*max``.

    Compared without radicals: ``Cmax^2 <= sum p_j * optimum^2``.
    """
    cmax = result.schedule.makespan
    return cmax * cmax <= total_p * optimum * optimum
