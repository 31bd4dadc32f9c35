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
   and the conflict-free *isolated* unit jobs are not branched on at
   all: once the connected components are placed, the optimal tail is
   computed exactly by the capacity bound and materialised greedily.

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

**Parallel certified search.**  ``certified_optimal(instance,
workers=k)`` with ``k > 1`` root-splits the branch and bound: the first
one or two branching levels of the component-ordered search are
expanded into independent subtree tasks (mirroring the search's own
viability, empty-machine-symmetry and incumbent filters, so the union
of subtrees covers exactly the sequential tree), which fan out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Workers share the
incumbent makespan as a scaled 64-bit integer — the exact quantum is
the lcm of the speed numerators (uniform) or of the processing-time
denominators (unrelated), so no rounding is ever involved — through a
:func:`multiprocessing.RawValue` guarded by a lock, polled every
:data:`_PULL_EVERY` nodes and compare-and-swapped on improvement.  The
returned makespan is bit-identical to the sequential search (both
compute ``min(seed, OPT)`` exactly); node counts may differ because
cross-worker incumbent propagation prunes differently.  A killed or
crashed worker never changes the answer: its subtree is re-searched
sequentially in the parent.  When parallelism cannot apply — a single
root branch, no seed incumbent, an incumbent too large for the shared
64-bit cell, or a daemonic caller such as a
:class:`~repro.runtime.batch.BatchRunner` worker (nested pools are
forbidden by :mod:`multiprocessing`) — the oracle silently runs the
sequential search.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from repro.exceptions import InfeasibleInstanceError, ReproError
from repro.graphs.components import connected_components
from repro.scheduling.bounds import min_cover_time_with_loads
from repro.scheduling.instance import (
    SchedulingInstance,
    UniformInstance,
    UnrelatedInstance,
)
from repro.scheduling.schedule import Schedule
from repro.utils.rationals import floor_fraction
from repro.certify.validators import instance_lower_bound

__all__ = ["OracleResult", "certified_optimal", "certified_optimal_makespan"]

_INT64_SAFE = 2**62
"""Largest scaled incumbent the shared 64-bit cell may carry."""

_PULL_EVERY = 64
"""Worker nodes between reads of the shared incumbent."""

_MAX_SUBTREES = 256
"""Root-splitting stops expanding once this many prefixes exist."""

_CRASH_ENV = "_REPRO_ORACLE_CRASH_SUBTREE"
"""Test hook: a worker handed the subtree with this index dies abruptly
(exercises the crashed-worker requeue path without real kill races)."""


@dataclass(frozen=True)
class OracleResult:
    """A provably optimal schedule plus its proof metadata.

    ``proof`` is ``"bound-tight"`` (the incumbent met the exact lower
    bound; zero nodes explored) or ``"search-exhausted"`` (branch and
    bound closed the gap).  ``seeded_from`` names the dispatch route
    that produced the starting incumbent (``None`` when no heuristic
    applied and the search started cold).

    ``workers`` is the number of search processes that actually ran
    (``1`` for the sequential search, including every parallel
    fallback) and ``subtrees`` the number of root-split tasks fanned
    out (``0`` when no split happened).  ``nodes`` aggregates the
    explored nodes across all workers plus the root expansion.
    """

    schedule: Schedule
    makespan: Fraction
    lower_bound: Fraction | None
    nodes: int
    proof: str
    seeded_from: str | None
    workers: int = 1
    subtrees: int = 0

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
    processing requirement then degree.  The tail collects isolated
    *unit* jobs of uniform instances — conflict-free and interchangeable,
    they are finished exactly by the capacity bound instead of being
    branched on.  For unrelated instances every job is branched (machine
    eligibility makes isolated jobs non-interchangeable).
    """
    graph = instance.graph
    components = connected_components(graph)
    uniform = isinstance(instance, UniformInstance)

    def weight(j: int) -> int:
        return instance.p[j] if isinstance(instance, UniformInstance) else graph.degree(j)

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
        if uniform and instance.p[j] == 1:
            tail.append(j)
        else:
            branched.append(j)
    return branched, tail


class _SearchContext:
    """Everything the branch and bound precomputes once per instance.

    Immutable during the search, so one context serves both the
    sequential path and (rebuilt from the serialised instance in
    :func:`_subtree_init`) every subtree task a worker process runs.
    """

    __slots__ = (
        "instance",
        "n",
        "m",
        "uniform",
        "speeds",
        "p",
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
        self.instance = instance
        self.n = n
        self.m = m
        if isinstance(instance, UniformInstance):
            self.uniform = True
            self.speeds: tuple[Fraction, ...] = instance.speeds
            self.p: tuple[int, ...] = instance.p
        else:
            self.uniform = False
            self.speeds = ()
            self.p = ()
        self.times: list[list[Fraction | None]] = [
            [instance.processing_time(i, j) for j in range(n)] for i in range(m)
        ]
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
            self.suffix_cheapest: list[Fraction] = []
        else:
            # residual volume after position k of the branched order, each
            # job billed at its cheapest eligible machine — static, so the
            # per-node volume bound becomes one addition instead of an
            # O((len(branched) - pos) * m) rescan
            suffix_cheapest = [Fraction(0)] * (len(self.branched) + 1)
            for k in range(len(self.branched) - 1, -1, -1):
                j = self.branched[k]
                cheapest = min(
                    (
                        t
                        for i in range(m)
                        if (t := self.times[i][j]) is not None
                    ),
                    default=None,
                )
                suffix_cheapest[k] = suffix_cheapest[k + 1] + (
                    cheapest if cheapest is not None else Fraction(0)
                )
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


class _SharedIncumbent:
    """The cross-process incumbent: an exactly scaled 64-bit makespan.

    ``quantum`` is chosen so every reachable makespan times ``quantum``
    is an integer (lcm of speed numerators for uniform instances, lcm
    of time denominators for unrelated ones) — sharing is exact, never
    rounded.  A value whose scaling is not integral is simply not
    shared (pruning is weakened, correctness untouched).
    """

    __slots__ = ("value", "lock", "quantum")

    def __init__(self, value: Any, lock: Any, quantum: int) -> None:
        self.value = value
        self.lock = lock
        self.quantum = quantum

    def offer(self, makespan: Fraction) -> None:
        num = makespan.numerator * self.quantum
        if num % makespan.denominator:
            return
        scaled = num // makespan.denominator
        with self.lock:
            if scaled < self.value.value:
                self.value.value = scaled

    def read(self) -> Fraction:
        with self.lock:
            raw = int(self.value.value)
        return Fraction(raw, self.quantum)


def _run_search(
    ctx: _SearchContext,
    incumbent_makespan: Fraction | None,
    prefix: tuple[int, ...] = (),
    shared: _SharedIncumbent | None = None,
) -> tuple[Fraction | None, list[int] | None, int]:
    """Branch and bound over the subtree below ``prefix``.

    Returns ``(found_makespan, found_assignment, nodes)`` where the
    found pair is the best *materialised* schedule strictly better than
    every incumbent seen (``None`` when the subtree holds nothing
    better).  With ``prefix=()`` and ``shared=None`` this is exactly
    the pre-parallel sequential search — same tree, same node count.
    """
    instance = ctx.instance
    uniform = ctx.uniform
    speeds = ctx.speeds
    p = ctx.p
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
    best_makespan: Fraction | None = incumbent_makespan
    found_makespan: Fraction | None = None
    completions: list[Fraction] = [Fraction(0)] * m
    unit_loads: list[int] = [0] * m  # integer units per machine (uniform)
    machine_jobs: list[set[int]] = [set() for _ in range(m)]
    assignment: list[int] = [-1] * n
    nodes = 0

    for k, i in enumerate(prefix):
        j = branched[k]
        t = times[i][j]
        if t is None or machine_jobs[i] & neighbor_sets[j]:
            raise ReproError(
                f"infeasible oracle subtree prefix: job {j} on machine {i}"
            )
        completions[i] += t
        machine_jobs[i].add(j)
        assignment[j] = i
        if uniform:
            unit_loads[i] += p[j]

    def _finish_tail() -> None:
        """Exactly place the isolated unit tail on the current loads."""
        nonlocal best_assignment, best_makespan, found_makespan
        if tail_units:
            span = min_cover_time_with_loads(speeds, unit_loads, tail_units)
        else:
            span = max(completions)
        if best_makespan is not None and span >= best_makespan:
            return
        if tail_units:
            # materialise greedily within the proven span: machine i can
            # absorb floor(s_i * span) - load_i more units
            slack = [
                floor_fraction(speeds[i] * span) - unit_loads[i]
                for i in range(m)
            ]
            pos = 0
            for j in tail:
                while slack[pos % m] <= 0:
                    pos += 1
                assignment[j] = pos % m
                slack[pos % m] -= 1
        best_makespan = span
        found_makespan = span
        best_assignment = assignment.copy()
        if shared is not None:
            shared.offer(span)
        if tail_units:
            for j in tail:
                assignment[j] = -1

    def _prune_bound(pos: int) -> Fraction:
        """An exact lower bound on any completion of the current node."""
        bound = max(completions)
        if uniform:
            capacity = min_cover_time_with_loads(
                speeds, unit_loads, suffix_units[pos]
            )
            if capacity > bound:
                bound = capacity
        else:
            volume = sum(completions, suffix_cheapest[pos])
            if volume / m > bound:
                bound = volume / m
        return bound

    def place(pos: int) -> None:
        nonlocal best_assignment, best_makespan, nodes
        if pos == len(branched):
            _finish_tail()
            return
        nodes += 1
        if shared is not None and nodes % _PULL_EVERY == 0:
            pulled = shared.read()
            if best_makespan is None or pulled < best_makespan:
                best_makespan = pulled
        if best_makespan is not None and _prune_bound(pos) >= best_makespan:
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
        for i in sorted(range(m), key=lambda i: completions[i]):
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

    place(len(prefix))
    return found_makespan, best_assignment, nodes


# --------------------------------------------------------------------- #
# root splitting and the worker side
# --------------------------------------------------------------------- #


def _effective_workers(workers: int) -> int:
    """The worker count the oracle may actually use.

    Daemonic processes (:class:`multiprocessing.pool.Pool` workers, as
    used by :class:`repro.runtime.batch.BatchRunner`) cannot spawn
    children, so a nested oracle silently degrades to the sequential
    search instead of crashing the outer pool.
    """
    if workers <= 1:
        return 1
    if multiprocessing.current_process().daemon:
        return 1
    return int(workers)


def _incumbent_quantum(ctx: _SearchContext) -> int:
    """The exact scaling factor for the shared integer incumbent.

    Every reachable makespan is ``load * den_i / num_i`` (uniform; the
    capacity-bound tail spans hit the same grid) or a sum of processing
    times (unrelated), so multiplying by the lcm of the speed
    numerators resp. time denominators always lands on an integer.
    """
    if ctx.uniform:
        return math.lcm(*(s.numerator for s in ctx.speeds))
    dens = [
        t.denominator for row in ctx.times for t in row if t is not None
    ]
    return math.lcm(*dens) if dens else 1


def _scale_exact(value: Fraction, quantum: int) -> int | None:
    """``value * quantum`` as an int64-safe integer, else ``None``."""
    num = value.numerator * quantum
    if num % value.denominator:
        return None
    scaled = num // value.denominator
    return scaled if 0 <= scaled < _INT64_SAFE else None


def _enumerate_prefixes(
    ctx: _SearchContext, incumbent_makespan: Fraction, want: int
) -> tuple[list[tuple[int, ...]], int]:
    """The root split: depth-1 (or depth-2) branching prefixes.

    Mirrors :func:`_run_search`'s own candidate filters — forbidden
    pairs, conflict edges, the empty-machine symmetry break, and the
    seed-incumbent completion prune — so the surviving prefixes cover
    every branch the sequential search could descend (pruning here uses
    only the *seed* incumbent, a superset of what the evolving
    sequential incumbent keeps).  Expansion goes one level deeper when
    the first level yields fewer than ``want`` tasks, and stops rather
    than exceed :data:`_MAX_SUBTREES`.  Returns the prefixes plus the
    number of root nodes expanded (counted into the aggregate total).
    """
    if not ctx.branched:
        return [()], 0
    prefixes: list[tuple[int, ...]] = [()]
    explored = 0
    depth = 0
    while depth < 2 and depth < len(ctx.branched) and len(prefixes) < want:
        nxt: list[tuple[int, ...]] = []
        for prefix in prefixes:
            completions = [Fraction(0)] * ctx.m
            machine_jobs: list[set[int]] = [set() for _ in range(ctx.m)]
            for k, i in enumerate(prefix):
                t = ctx.times[i][ctx.branched[k]]
                if t is None:  # pragma: no cover - filtered at creation
                    raise ReproError("forbidden pair in an oracle prefix")
                completions[i] += t
                machine_jobs[i].add(ctx.branched[k])
            explored += 1
            j = ctx.branched[depth]
            neighbors = ctx.neighbor_sets[j]
            for i in sorted(range(ctx.m), key=lambda i: completions[i]):
                t = ctx.times[i][j]
                if t is None or machine_jobs[i] & neighbors:
                    continue
                if not machine_jobs[i] and any(
                    not machine_jobs[o] for o in ctx.earlier_identical[i]
                ):
                    continue
                if completions[i] + t >= incumbent_makespan:
                    continue
                nxt.append(prefix + (i,))
        if len(nxt) > _MAX_SUBTREES:
            break
        prefixes = nxt
        depth += 1
        if not prefixes:
            break
    return prefixes, explored


_WORKER_CTX: _SearchContext | None = None
_WORKER_SHARED: _SharedIncumbent | None = None


def _subtree_init(
    payload: dict[str, Any], value: Any, lock: Any, quantum: int
) -> None:
    """Worker-process initializer: rebuild the search context once.

    The instance travels as its JSON dict
    (:func:`repro.io.serialization.instance_to_dict` round-trips every
    graph family deterministically, so the worker's branch order is the
    parent's) and the shared incumbent cell plus its lock are inherited
    through the process start.
    """
    global _WORKER_CTX, _WORKER_SHARED
    from repro.io.serialization import instance_from_dict

    _WORKER_CTX = _SearchContext(instance_from_dict(payload))
    _WORKER_SHARED = _SharedIncumbent(value, lock, quantum)


def _solve_subtree(
    task: tuple[int, tuple[int, ...]]
) -> tuple[Fraction | None, list[int] | None, int]:
    """One root-split task: search the subtree under ``task``'s prefix."""
    index, prefix = task
    if os.environ.get(_CRASH_ENV) == str(index):
        os._exit(1)  # the crash-injection hook: die like a SIGKILL would
    ctx, shared = _WORKER_CTX, _WORKER_SHARED
    if ctx is None or shared is None:  # pragma: no cover - initializer ran
        raise ReproError("oracle subtree worker used before initialization")
    return _run_search(ctx, shared.read(), prefix=prefix, shared=shared)


def _parallel_certified(
    instance: SchedulingInstance,
    ctx: _SearchContext,
    incumbent: Schedule,
    seeded_from: str | None,
    lower: Fraction | None,
    workers: int,
) -> OracleResult | None:
    """Fan the root-split subtrees over a process pool.

    Returns ``None`` when parallelism cannot apply (single root branch,
    incumbent outside the shared cell's range) — the caller then runs
    the sequential search.  Crashed or killed workers lose nothing but
    time: their subtrees are re-searched in-process before aggregation.
    """
    from repro.io.serialization import instance_to_dict

    quantum = _incumbent_quantum(ctx)
    seed_scaled = _scale_exact(incumbent.makespan, quantum)
    if seed_scaled is None:
        return None
    prefixes, explored = _enumerate_prefixes(
        ctx, incumbent.makespan, 4 * workers
    )
    if len(prefixes) <= 1:
        return None

    mp_ctx = multiprocessing.get_context()
    value = mp_ctx.RawValue("q", seed_scaled)
    lock = mp_ctx.Lock()
    payload = instance_to_dict(instance)
    results: dict[int, tuple[Fraction | None, list[int] | None, int]] = {}
    failed: list[int] = []
    pool = ProcessPoolExecutor(
        max_workers=min(workers, len(prefixes)),
        mp_context=mp_ctx,
        initializer=_subtree_init,
        initargs=(payload, value, lock, quantum),
    )
    try:
        futures = {
            pool.submit(_solve_subtree, (k, prefix)): k
            for k, prefix in enumerate(prefixes)
        }
        for future, k in futures.items():
            try:
                results[k] = future.result()
            except Exception:  # noqa: BLE001 — a dead worker (SIGKILL,
                # BrokenProcessPool) must degrade to a sequential
                # re-search of its subtree, never to a wrong answer
                failed.append(k)
    finally:
        pool.shutdown(wait=True)

    nodes = explored + sum(r[2] for r in results.values())
    # re-search lost subtrees in-process, pruning with the best value
    # any surviving worker established
    if failed:
        prune = incumbent.makespan
        for found, _, _ in results.values():
            if found is not None and found < prune:
                prune = found
        for k in sorted(failed):
            found, found_assignment, sub_nodes = _run_search(
                ctx, prune, prefix=prefixes[k]
            )
            nodes += sub_nodes
            results[k] = (found, found_assignment, sub_nodes)
            if found is not None and found < prune:
                prune = found

    best_index: int | None = None
    best_makespan: Fraction | None = None
    for k in sorted(results):
        found, found_assignment, _ = results[k]
        if found is None or found_assignment is None:
            continue
        if best_makespan is None or found < best_makespan:
            best_makespan, best_index = found, k
    if best_index is None:
        # no subtree beat the seed: the incumbent was optimal
        return OracleResult(
            incumbent,
            incumbent.makespan,
            lower,
            nodes,
            "search-exhausted",
            seeded_from,
            workers=workers,
            subtrees=len(prefixes),
        )
    assignment = results[best_index][1]
    if assignment is None:  # pragma: no cover - filtered above
        raise ReproError("winning oracle subtree lost its assignment")
    schedule = Schedule(instance, assignment)
    return OracleResult(
        schedule,
        schedule.makespan,
        lower,
        nodes,
        "search-exhausted",
        seeded_from,
        workers=workers,
        subtrees=len(prefixes),
    )


def certified_optimal(
    instance: SchedulingInstance, workers: int = 1
) -> OracleResult:
    """A provably optimal schedule, with the proof that it is one.

    Parameters
    ----------
    instance:
        The instance to solve exactly (uniform or unrelated).
    workers:
        Search processes for the root-split parallel branch and bound;
        ``1`` (the default) runs the sequential search.  The makespan
        is identical either way — parallelism only changes how fast
        the proof closes (node counts may differ).  Requests from
        daemonic processes, instances with a single root branch, and
        other inapplicable cases silently degrade to ``workers=1``;
        :attr:`OracleResult.workers` reports what actually ran.

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
    effective = _effective_workers(workers)
    if effective > 1 and incumbent is not None:
        parallel = _parallel_certified(
            instance, ctx, incumbent, seeded_from, lower, effective
        )
        if parallel is not None:
            return parallel

    found_makespan, best_assignment, nodes = _run_search(
        ctx, None if incumbent is None else incumbent.makespan
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
    if incumbent is not None and found_makespan == incumbent.makespan:
        schedule = incumbent
    else:
        schedule = Schedule(instance, best_assignment)
    return OracleResult(
        schedule, schedule.makespan, lower, nodes, "search-exhausted", seeded_from
    )


def certified_optimal_makespan(instance: SchedulingInstance) -> Fraction:
    """Makespan of :func:`certified_optimal` (convenience)."""
    return certified_optimal(instance).makespan
