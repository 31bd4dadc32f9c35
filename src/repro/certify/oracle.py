"""The pruned exact oracle: certified optima beyond brute-force sizes.

:func:`repro.scheduling.brute_force.brute_force_optimal` is exact but
tops out around ``n ~ 16``; guarantee audits want ground truth on the
instance sizes the sweeps actually use.  :func:`certified_optimal`
pushes the frontier to ``n ~ 30`` on the unit-job uniform instances the
paper's exact results target, with four ingredients:

1. **incumbent seeding** — the dispatcher's own output
   (:func:`repro.engine.solve` with ``algorithm="auto"``) starts the
   search with a feasible upper bound, often already optimal;
2. **bound-tight fast path** — when the seed's makespan equals the
   environment's exact lower bound
   (:func:`~repro.scheduling.bounds.uniform_capacity_lower_bound` /
   :func:`~repro.scheduling.bounds.unrelated_lower_bound`), optimality
   is proven with zero search nodes;
3. **partial-assignment pruning** — at every node the residual demand
   must fit the rounded-down residual capacities
   (:func:`~repro.scheduling.bounds.min_cover_time_with_loads`), and
   every unassigned job must still have a conflict-free machine whose
   completion stays below the incumbent;
4. **component decomposition**
   (:func:`repro.graphs.components.connected_components`) — branching
   proceeds component by component so conflict propagation is local,
   and the conflict-free *isolated* unit jobs that no eligibility mask
   restricts are not branched on at all: once everything else is placed,
   the optimal tail is computed exactly by the capacity bound and
   materialised greedily.

The result is a :class:`OracleResult` carrying the proof method and the
node count, so certification reports can show *why* a value is optimal.

The search inner loop memoizes everything that never changes during the
search — per-job neighbour sets, the suffix of cheapest eligible
processing times behind the unrelated volume bound, and the
identical-machine-row classes behind the empty-machine symmetry break —
instead of recomputing them at every node.  The search tree is pinned
by recorded ``(makespan, nodes, proof)`` values in
``tests/test_certify_oracle.py``; ``BENCH_PERF_oracle.json`` keeps the
historical measurement against the per-node recomputing loop.

**Integer scale.**  Every makespan the search can reach is an integer
multiple of ``1 / Q``, where ``(Q, times)`` is the instance's own grid
(:meth:`~repro.scheduling.instance.SchedulingInstance.grid`): a sum of
processing times is a sum of ticks, and on uniform machines ``Q`` is the
lcm of the speed numerators (:func:`~repro.utils.rationals.speed_grid`),
the grid the capacity-bound tail spans land on too.  The branch and
bound therefore runs on integers scaled by ``Q`` — per-job times,
machine loads, suffix volumes, the incumbent and both pruning bounds —
and the optimum becomes a :class:`~fractions.Fraction` again once, when
the winning schedule is built.  Scaling preserves order and ties, so the
tree is the one an exact rational search explores.  A value off the
``1/Q`` grid raises instead of being rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.exceptions import InfeasibleInstanceError, ReproError
from repro.graphs.components import connected_components
from repro.scheduling.bounds import min_cover_time_with_loads
from repro.scheduling.instance import SchedulingInstance, UniformInstance
from repro.scheduling.schedule import Schedule
from repro.certify.validators import instance_lower_bound
from repro.utils.rationals import _to_grid, speed_grid

__all__ = ["OracleResult", "certified_optimal", "certified_optimal_makespan"]


@dataclass(frozen=True)
class OracleResult:
    """A provably optimal schedule plus its proof metadata.

    ``proof`` is ``"bound-tight"`` (the incumbent met the exact lower
    bound; zero nodes explored) or ``"search-exhausted"`` (branch and
    bound closed the gap).  ``seeded_from`` names the dispatch route
    that produced the starting incumbent (``None`` when no heuristic
    applied and the search started cold).
    """

    schedule: Schedule
    makespan: Fraction
    lower_bound: Fraction | None
    nodes: int
    proof: str
    seeded_from: str | None

    @property
    def optimal(self) -> Fraction:
        """Alias for :attr:`makespan` (it is proven optimal)."""
        return self.makespan


def _seed_incumbent(instance: SchedulingInstance) -> tuple[Schedule | None, str | None]:
    """Best feasible heuristic schedule to start the search from."""
    from repro.engine import auto_choice, solve

    best: Schedule | None = None
    chosen: str | None = None
    try:
        name = auto_choice(instance)
        schedule = solve(instance, algorithm=name)
        if schedule.is_feasible():
            best, chosen = schedule, name
    except ReproError:
        pass
    except Exception:  # noqa: BLE001 — a buggy heuristic must not stop
        # the exact search; the auditor reports the crash separately
        pass
    return best, chosen


def _branch_order(instance: SchedulingInstance) -> tuple[list[int], list[int]]:
    """``(branched, isolated_unit_tail)`` job orders.

    Branched jobs are grouped by connected component (largest first, so
    the hardest conflicts bind early), within a component by descending
    processing requirement then degree.  The tail collects the isolated
    *unit* jobs of uniform instances that no eligibility mask restricts
    — conflict-free and interchangeable, they are finished exactly by
    the capacity bound instead of being branched on.  A masked job is
    branched like any other (its machines are not interchangeable), and
    so is every job of an unrelated instance.
    """
    graph = instance.graph
    components = connected_components(graph)

    def weight(j: int) -> int:
        return instance.p[j] if isinstance(instance, UniformInstance) else graph.degree(j)

    def interchangeable(j: int) -> bool:
        return (
            isinstance(instance, UniformInstance)
            and instance.p[j] == 1
            and len(instance.eligible_machines(j)) == instance.m
        )

    tail: list[int] = []
    branched: list[int] = []
    nontrivial = [c for c in components if len(c) > 1]
    singletons = [c[0] for c in components if len(c) == 1]
    nontrivial.sort(key=len, reverse=True)
    for comp in nontrivial:
        branched.extend(
            sorted(comp, key=lambda j: (-weight(j), -graph.degree(j)))
        )
    for j in sorted(singletons, key=lambda j: -weight(j)):
        if interchangeable(j):
            tail.append(j)
        else:
            branched.append(j)
    return branched, tail


class _SearchContext:
    """Everything the branch and bound precomputes once per instance.

    ``times``, ``unit_time`` and ``suffix_cheapest`` are integers scaled
    by ``quantum``; ``times[i][j]`` is ``None`` where job ``j`` may not
    run on machine ``i`` (a forbidden pair or an eligibility mask).
    """

    __slots__ = (
        "n",
        "m",
        "uniform",
        "speeds",
        "p",
        "quantum",
        "unit_time",
        "times",
        "neighbor_sets",
        "branched",
        "tail",
        "tail_units",
        "suffix_units",
        "suffix_cheapest",
        "earlier_identical",
    )

    def __init__(self, instance: SchedulingInstance) -> None:
        n, m = instance.n, instance.m
        self.n = n
        self.m = m
        self.quantum, self.times = instance.grid()
        if isinstance(instance, UniformInstance):
            self.uniform = True
            self.speeds: tuple[Fraction, ...] = instance.speeds
            self.p: tuple[int, ...] = instance.p
            # one unit on machine i takes den_i / num_i, scaled
            self.unit_time: tuple[int, ...] = speed_grid(instance.speeds)[1]
        else:
            self.uniform = False
            self.speeds = ()
            self.p = ()
            self.unit_time = ()
        graph = instance.graph
        self.neighbor_sets: list[frozenset[int]] = [
            graph.neighbors(j) for j in range(n)
        ]
        self.branched, self.tail = _branch_order(instance)
        self.tail_units = len(self.tail)  # all unit jobs
        # residual integer demand after position k of the branched order
        # (uniform only; includes the tail's units)
        if self.uniform:
            suffix_units = [0] * (len(self.branched) + 1)
            for k in range(len(self.branched) - 1, -1, -1):
                suffix_units[k] = suffix_units[k + 1] + self.p[self.branched[k]]
            self.suffix_units: list[int] = [
                u + self.tail_units for u in suffix_units
            ]
            self.suffix_cheapest: list[int] = []
        else:
            # residual volume after position k of the branched order, each
            # job billed at its cheapest eligible machine — static, so the
            # per-node volume bound becomes one addition instead of an
            # O((len(branched) - pos) * m) rescan
            suffix_cheapest = [0] * (len(self.branched) + 1)
            for k in range(len(self.branched) - 1, -1, -1):
                j = self.branched[k]
                cheapest = min(
                    (t for i in range(m) if (t := self.times[i][j]) is not None),
                    default=0,
                )
                suffix_cheapest[k] = suffix_cheapest[k + 1] + cheapest
            self.suffix_cheapest = suffix_cheapest
            self.suffix_units = []
        # empty-machine symmetry break, memoized: earlier machines with an
        # identical processing-time row (recomputing the row comparison at
        # every node is pure waste — the rows never change)
        machine_rows = [tuple(self.times[i]) for i in range(m)]
        self.earlier_identical: list[tuple[int, ...]] = [
            tuple(
                other
                for other in range(i)
                if machine_rows[other] == machine_rows[i]
            )
            for i in range(m)
        ]


def _run_search(
    ctx: _SearchContext, incumbent: int | None
) -> tuple[list[int] | None, int]:
    """Branch and bound below the scaled ``incumbent`` makespan.

    Returns ``(found_assignment, nodes)``: the best materialised
    schedule strictly better than ``incumbent`` (``None`` when there is
    none) and the number of explored nodes.
    """
    uniform = ctx.uniform
    speeds = ctx.speeds
    p = ctx.p
    quantum = ctx.quantum
    unit_time = ctx.unit_time
    times = ctx.times
    neighbor_sets = ctx.neighbor_sets
    branched = ctx.branched
    tail = ctx.tail
    tail_units = ctx.tail_units
    suffix_units = ctx.suffix_units
    suffix_cheapest = ctx.suffix_cheapest
    earlier_identical = ctx.earlier_identical
    n, m = ctx.n, ctx.m

    best_assignment: list[int] | None = None
    best_makespan = incumbent
    completions = [0] * m
    unit_loads = [0] * m  # integer units per machine (uniform)
    machine_jobs: list[set[int]] = [set() for _ in range(m)]
    assignment = [-1] * n
    nodes = 0

    def cover(demand: int) -> int:
        """The scaled capacity bound for ``demand`` more units."""
        return _to_grid(
            min_cover_time_with_loads(speeds, unit_loads, demand), quantum
        )

    def _finish_tail() -> None:
        """Exactly place the isolated unit tail on the current loads."""
        nonlocal best_assignment, best_makespan
        span = cover(tail_units) if tail_units else max(completions)
        if best_makespan is not None and span >= best_makespan:
            return
        if tail_units:
            # materialise greedily within the proven span: machine i
            # holds span // unit_time[i] units by then
            slack = [span // unit_time[i] - unit_loads[i] for i in range(m)]
            pos = 0
            for j in tail:
                while slack[pos % m] <= 0:
                    pos += 1
                assignment[j] = pos % m
                slack[pos % m] -= 1
        best_makespan = span
        best_assignment = assignment.copy()
        if tail_units:
            for j in tail:
                assignment[j] = -1

    def _pruned(pos: int, best: int) -> bool:
        """Whether an exact lower bound on every completion of the node
        reaches ``best``."""
        if uniform:
            # the capacity bound already covers the completion frontier
            return cover(suffix_units[pos]) >= best
        return (
            max(completions) >= best
            or sum(completions) + suffix_cheapest[pos] >= best * m
        )

    def place(pos: int) -> None:
        nonlocal nodes
        if pos == len(branched):
            _finish_tail()
            return
        nodes += 1
        if best_makespan is not None and _pruned(pos, best_makespan):
            return
        # every unassigned branched job must retain a viable machine
        for k in range(pos, len(branched)):
            jj = branched[k]
            viable = False
            jj_neighbors = neighbor_sets[jj]
            for i in range(m):
                t = times[i][jj]
                if t is None or machine_jobs[i] & jj_neighbors:
                    continue
                if (
                    best_makespan is not None
                    and completions[i] + t >= best_makespan
                ):
                    continue
                viable = True
                break
            if not viable:
                return
        j = branched[pos]
        neighbors = neighbor_sets[j]
        for i in sorted(range(m), key=completions.__getitem__):
            t = times[i][j]
            if t is None or machine_jobs[i] & neighbors:
                continue
            if not machine_jobs[i] and _earlier_equivalent_empty(i):
                continue
            done = completions[i] + t
            if best_makespan is not None and done >= best_makespan:
                continue
            completions[i] = done
            machine_jobs[i].add(j)
            assignment[j] = i
            if uniform:
                unit_loads[i] += p[j]
            place(pos + 1)
            completions[i] = done - t
            machine_jobs[i].remove(j)
            assignment[j] = -1
            if uniform:
                unit_loads[i] -= p[j]

    def _earlier_equivalent_empty(i: int) -> bool:
        for other in earlier_identical[i]:
            if not machine_jobs[other]:
                return True
        return False

    place(0)
    return best_assignment, nodes


def certified_optimal(
    instance: SchedulingInstance, workers: int = 1
) -> OracleResult:
    """A provably optimal schedule, with the proof that it is one.

    Parameters
    ----------
    instance:
        The instance to solve exactly (uniform or unrelated).
    workers:
        Must be ``1``; any other value raises :exc:`ValueError`.  The
        search is sequential, and the keyword stays only until the
        ``workers=1`` call in ``e2ebench/run.py`` drops it.

    Returns
    -------
    OracleResult
        The optimal schedule, its makespan, the proof method
        (``"bound-tight"`` or ``"search-exhausted"``), the explored
        node count, and the dispatch route that seeded the incumbent.

    Raises
    ------
    repro.exceptions.InfeasibleInstanceError
        If no feasible schedule exists.

    Notes
    -----
    Exponential in the worst case, but the pruning stack keeps unit-job
    uniform bipartite instances tractable to ``n ~ 30``.
    """
    if workers != 1:
        raise ValueError(
            f"certified_optimal runs one sequential search; got workers={workers!r}"
        )
    n = instance.n
    lower = instance_lower_bound(instance)
    if n == 0:
        return OracleResult(
            Schedule(instance, []), Fraction(0), lower, 0, "bound-tight", None
        )

    incumbent, seeded_from = _seed_incumbent(instance)
    if incumbent is not None and lower is not None and incumbent.makespan == lower:
        return OracleResult(
            incumbent, incumbent.makespan, lower, 0, "bound-tight", seeded_from
        )

    ctx = _SearchContext(instance)
    best_assignment, nodes = _run_search(
        ctx,
        None if incumbent is None else _to_grid(incumbent.makespan, ctx.quantum),
    )

    if best_assignment is None:
        if incumbent is not None:
            # nothing strictly better exists: the incumbent was optimal
            # (the analogue of catching BoundExcludedError from a seeded
            # brute_force_optimal call — a feasible instance must never
            # be misreported as infeasible)
            return OracleResult(
                incumbent,
                incumbent.makespan,
                lower,
                nodes,
                "search-exhausted",
                seeded_from,
            )
        raise InfeasibleInstanceError("no feasible schedule exists")
    schedule = Schedule(instance, best_assignment)
    return OracleResult(
        schedule, schedule.makespan, lower, nodes, "search-exhausted", seeded_from
    )


def certified_optimal_makespan(instance: SchedulingInstance) -> Fraction:
    """Makespan of :func:`certified_optimal` (convenience)."""
    return certified_optimal(instance).makespan
