"""Lenstra–Shmoys–Tardos LP rounding for ``R||Cmax`` (related work [18]).

The paper cites [18] as the unrelated-machine state of the art without an
incompatibility graph: no ``(3/2 - eps)``-approximation exists unless
P = NP, but a 2-approximation does.  We implement that 2-approximation as
the graph-blind baseline of the experiment suite:

1. **Deadline search.**  Binary search a deadline ``T``; pairs with
   ``p_ij > T`` are disallowed.
2. **LP feasibility.**  Solve the assignment LP ``sum_i x_ij = 1``,
   ``sum_j p_ij x_ij <= T`` over allowed pairs (scipy ``linprog``/HiGHS,
   which returns a basic optimal solution).
3. **Rounding.**  At a vertex of the LP at most ``m`` jobs are split
   between machines; the fractional pairs form a forest, so the split
   jobs can be matched to distinct machines (our Hopcroft–Karp).  Each
   machine gains at most one extra job of size ``<= T``, giving makespan
   ``<= 2 T* <= 2 C*max``.

The schedule ignores the incompatibility graph by design (like
:func:`repro.scheduling.baselines.unconstrained_lpt` it quantifies the
price of incompatibility); on instances whose graph is empty it is a true
2-approximation.  The returned :class:`LpRoundingResult` also exposes the
LP deadline ``T*``, a *float-accurate* lower bound on the graph-free
optimum used by the benchmark tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.exceptions import InvalidInstanceError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.matching import hopcroft_karp
from repro.scheduling.instance import UnrelatedInstance
from repro.scheduling.schedule import Schedule

__all__ = ["LpRoundingResult", "lst_two_approx", "greedy_min_time_schedule"]

_FRACTIONAL_TOL = 1e-7


@dataclass(frozen=True)
class LpRoundingResult:
    """Outcome of the LST 2-approximation.

    Attributes
    ----------
    schedule:
        The rounded schedule (built with ``check=False``: it ignores the
        incompatibility graph, so it may be infeasible for the constrained
        problem — exactly like the paper's unconstrained comparators).
    deadline:
        The smallest LP-feasible deadline ``T*`` found (float precision);
        a lower bound on the graph-free optimum up to search tolerance.
    lp_iterations:
        Number of LP solves performed by the binary search.
    """

    schedule: Schedule
    deadline: float
    lp_iterations: int

    @property
    def certified_ratio(self) -> float:
        """``Cmax / T*`` — by [18] this is at most 2 (+ search tolerance)."""
        if self.deadline == 0:
            return 1.0
        return float(self.schedule.makespan) / self.deadline


def greedy_min_time_schedule(instance: UnrelatedInstance) -> Schedule:
    """Every job on its fastest allowed machine (graph-blind upper bound)."""
    assignment = []
    for j in range(instance.n):
        best_i, best_t = None, None
        for i in range(instance.m):
            t = instance.times[i][j]
            if t is not None and (best_t is None or t < best_t):
                best_i, best_t = i, t
        assignment.append(best_i)
    return Schedule(instance, assignment, check=False)


def _lp_feasible(
    times: list[list[float | None]], n: int, m: int, deadline: float
) -> np.ndarray | None:
    """Solve the deadline-``T`` assignment LP; returns ``x`` or ``None``.

    ``x`` is an ``(m, n)`` array with column sums 1, supported only on
    pairs with ``p_ij <= deadline``, and machine loads ``<= deadline``
    (within solver tolerance).  Minimising total load steers HiGHS to a
    vertex with few fractional entries.
    """
    from scipy.optimize import linprog

    pairs: list[tuple[int, int]] = [
        (i, j)
        for j in range(n)
        for i in range(m)
        if times[i][j] is not None and times[i][j] <= deadline * (1 + 1e-12)
    ]
    if len({j for _, j in pairs}) < n:
        return None  # some job has no machine fast enough
    k = len(pairs)
    cost = np.array([times[i][j] for i, j in pairs])
    # equality: each job's variables sum to 1
    a_eq = np.zeros((n, k))
    for col, (i, j) in enumerate(pairs):
        a_eq[j, col] = 1.0
    b_eq = np.ones(n)
    # inequality: machine loads under the deadline
    a_ub = np.zeros((m, k))
    for col, (i, j) in enumerate(pairs):
        a_ub[i, col] = times[i][j]
    b_ub = np.full(m, deadline)
    res = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, 1), method="highs"
    )
    if not res.success:
        return None
    x = np.zeros((m, n))
    for col, (i, j) in enumerate(pairs):
        x[i, j] = res.x[col]
    return x


def _round_vertex(
    instance: UnrelatedInstance, x: np.ndarray, deadline: float
) -> Schedule:
    """Round a fractional assignment to an integral one (LST rounding).

    Integral jobs keep their machine.  Fractional jobs are matched to
    distinct machines among those they are split across; any job the
    matching misses (only possible away from an exact LP vertex) falls
    back to its largest-share machine.
    """
    m, n = x.shape
    assignment = [-1] * n
    fractional: list[int] = []
    for j in range(n):
        top = int(np.argmax(x[:, j]))
        if x[top, j] >= 1.0 - _FRACTIONAL_TOL:
            assignment[j] = top
        else:
            fractional.append(j)
    if fractional:
        # bipartite matching: fractional jobs (side 0) vs machines (side 1)
        jb_index = {j: idx for idx, j in enumerate(fractional)}
        nf = len(fractional)
        edges = [
            (jb_index[j], nf + i)
            for j in fractional
            for i in range(m)
            if x[i, j] > _FRACTIONAL_TOL
        ]
        helper = BipartiteGraph(
            nf + m, edges, side=[0] * nf + [1] * m
        )
        mate = hopcroft_karp(helper)
        for j in fractional:
            partner = mate[jb_index[j]]
            if partner != -1:
                assignment[j] = partner - nf
            else:  # pragma: no cover - requires a non-vertex LP solution
                assignment[j] = int(np.argmax(x[:, j]))
    return Schedule(instance, assignment, check=False)


def _lp_float(value: Fraction, what: str) -> float:
    """``float(value)`` for the LP, refusing values outside float range."""
    try:
        return float(value)
    except OverflowError:
        raise InvalidInstanceError(
            f"a {what} is outside float range; the LP cannot represent it"
        ) from None


def lst_two_approx(
    instance: UnrelatedInstance,
    tolerance: float = 1e-4,
    max_iterations: int = 60,
) -> LpRoundingResult:
    """The [18] 2-approximation for ``R||Cmax`` (graph-blind).

    Binary-searches the smallest LP-feasible deadline to relative
    ``tolerance``, then rounds the final LP vertex.  The LP runs in
    floating point, so :exc:`InvalidInstanceError` is raised when a
    processing time or the greedy makespan is outside float range.
    """
    if instance.n == 0:
        return LpRoundingResult(Schedule(instance, []), 0.0, 0)
    times = [
        [None if t is None else _lp_float(t, "processing time") for t in row]
        for row in instance.times
    ]
    n, m = instance.n, instance.m
    # bounds: max-min job time below, greedy schedule above
    mins = [
        min(times[i][j] for i in range(m) if times[i][j] is not None)
        for j in range(n)
    ]
    lo = max(max(mins), sum(mins) / m)
    greedy = greedy_min_time_schedule(instance)
    hi = _lp_float(greedy.makespan, "greedy makespan")
    if hi == 0:  # all jobs take zero time everywhere they are allowed
        return LpRoundingResult(greedy, 0.0, 0)
    lo = min(lo, hi)
    iterations = 0
    best_x: np.ndarray | None = None
    best_t = hi
    x_hi = _lp_feasible(times, n, m, hi)
    if x_hi is not None:
        best_x, best_t = x_hi, hi
    while hi - lo > tolerance * max(1.0, lo) and iterations < max_iterations:
        mid = (lo + hi) / 2
        x = _lp_feasible(times, n, m, mid)
        iterations += 1
        if x is not None:
            best_x, best_t = x, mid
            hi = mid
        else:
            lo = mid
    if best_x is None:  # pragma: no cover - greedy deadline is always feasible
        raise InvalidInstanceError("LP infeasible even at the greedy deadline")
    schedule = _round_vertex(instance, best_x, best_t)
    return LpRoundingResult(schedule, best_t, iterations + 1)
