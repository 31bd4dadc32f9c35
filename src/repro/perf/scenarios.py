"""Named perf scenarios: the measured hot paths behind ``repro perf``.

Each scenario builds a deterministic workload sweep, times an optimized
path against the reference it replaces (the integer kernels against
their numpy tier, the sequential oracle against the parallel one) under
the warmup/repeat/median policy of :mod:`repro.perf.timer`, asserts
result equivalence along the way, and returns the before/after table
as a schema-valid :class:`~repro.perf.record.BenchRecord` (experiment
ids ``PERF_<target>``).  ``docs/PERFORMANCE.md`` reproduces these
tables; CI runs the ``smoke`` shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import InvalidInstanceError
from repro.perf.record import BenchPhase, BenchRecord
from repro.perf.timer import TimingResult, measure

__all__ = ["ScenarioOutcome", "SCENARIO_NAMES", "run_scenario"]


@dataclass(frozen=True)
class ScenarioOutcome:
    """One scenario's measured sweep.

    Parameters
    ----------
    record:
        The before/after table and phase timings, ready to persist as
        ``BENCH_PERF_<target>.json``.
    profile_fn:
        Zero-argument callable exercising the scenario's largest
        optimized case (the ``repro perf --profile`` target).
    """

    record: BenchRecord
    profile_fn: Callable[[], Any]


def _speedup_row(
    case: str,
    before: TimingResult,
    after: TimingResult,
    extra: dict[str, Any] | None = None,
) -> tuple[list[Any], list[BenchPhase]]:
    """A ``[case, baseline ms, optimized ms, speedup]`` row + its phases."""
    row: list[Any] = [
        case,
        before.median_s * 1e3,
        after.median_s * 1e3,
        before.median_s / after.median_s if after.median_s > 0 else float("inf"),
    ]
    size = dict(extra or {})
    phases = [
        before.to_phase(name=f"baseline:{case}", size=size),
        after.to_phase(name=f"optimized:{case}", size=size),
    ]
    return row, phases


_COLUMNS = ["case", "baseline (ms)", "optimized (ms)", "speedup"]


def _scenario_oracle_parallel(
    repeat: int, warmup: int, smoke: bool
) -> ScenarioOutcome:
    """Root-split parallel oracle vs the sequential search.

    Both sides run :func:`~repro.certify.oracle.certified_optimal` —
    ``workers=1`` is the sequential branch and bound, ``workers=k``
    fans the root-split subtrees over a process pool with a shared
    scaled-integer incumbent.  The makespan must be identical on every
    case (node counts legitimately differ: cross-worker incumbent
    propagation prunes differently).  The recorded numbers are only
    meaningful relative to the measuring host's core count, which the
    notes therefore capture; on a single-core container the parallel
    side pays pool startup and oversubscription with no compute to win.

    The full run adds a *reach* row: the largest instance from a fixed
    deterministic ladder that each mode certifies within a 10-second
    budget (one timed run per rung, no repeats — reach is a frontier
    measure, not a latency one).
    """
    import multiprocessing
    import os
    import time

    import numpy as np

    from repro.certify.oracle import certified_optimal
    from repro.machines.profiles import geometric_speeds
    from repro.random_graphs.gilbert import gnnp
    from repro.scheduling.instance import UniformInstance, UnrelatedInstance

    def q_family(n_side: int, m: int, density: float) -> Any:
        graph = gnnp(n_side, density, seed=9)
        rng = np.random.default_rng(17)
        p = [int(x) for x in rng.integers(1, 9, graph.n)]
        return UniformInstance(graph, p, geometric_speeds(m, 2))

    def r_family(n_side: int, m: int) -> Any:
        graph = gnnp(n_side, 0.3, seed=13)
        rng = np.random.default_rng(23)
        times = [[int(x) for x in rng.integers(1, 15, graph.n)] for _ in range(m)]
        return UnrelatedInstance(graph, times)

    if smoke:
        families: list[tuple[str, Any]] = [("Q n=14 m=3", q_family(7, 3, 0.3))]
        worker_counts = [2]
    else:
        families = [
            ("Q n=24 m=4 d=0.4", q_family(12, 4, 0.4)),
            ("R n=22 m=4", r_family(11, 4)),
        ]
        worker_counts = [2, 4, 8]

    columns = [*_COLUMNS, "workers", "subtrees", "nodes seq", "nodes par"]
    rows: list[list[Any]] = []
    phases: list[BenchPhase] = []
    largest = families[-1][1]
    for case, instance in families:
        before = measure(
            certified_optimal, instance, repeat=repeat, warmup=warmup
        )
        for w in worker_counts:
            after = measure(
                certified_optimal, instance, w, repeat=repeat, warmup=warmup
            )
            if before.value.makespan != after.value.makespan:
                raise InvalidInstanceError(
                    f"oracle-parallel equivalence broke on {case} "
                    f"workers={w}: {before.value.makespan} vs "
                    f"{after.value.makespan}"
                )
            row, case_phases = _speedup_row(
                f"{case} workers={w}",
                before,
                after,
                {"n": instance.n, "m": instance.m, "workers": w},
            )
            row.extend(
                [
                    after.value.workers,
                    after.value.subtrees,
                    before.value.nodes,
                    after.value.nodes,
                ]
            )
            rows.append(row)
            phases.extend(case_phases)
    if multiprocessing.active_children():
        raise InvalidInstanceError(
            "oracle-parallel left live worker processes after teardown"
        )

    if not smoke:
        # reach under a fixed wall-clock budget: how far up the ladder
        # each mode certifies before a single run exceeds 10 seconds
        budget_s = 10.0
        ladder = [(n_side, 4) for n_side in (8, 9, 10, 11, 12, 13)]
        reach: dict[int, tuple[int, float]] = {}
        for w in (1, 4):
            best_n, best_s = 0, 0.0
            for n_side, m in ladder:
                instance = r_family(n_side, m)
                start = time.perf_counter()
                result = certified_optimal(instance, workers=w)
                elapsed = time.perf_counter() - start
                if elapsed > budget_s:
                    break
                best_n, best_s = instance.n, elapsed
                del result
            reach[w] = (best_n, best_s)
        seq_n, seq_s = reach[1]
        par_n, par_s = reach[4]
        rows.append(
            [
                f"reach: largest R n certified in {budget_s:.0f}s "
                f"(seq n={seq_n} vs workers=4 n={par_n})",
                seq_s * 1e3,
                par_s * 1e3,
                1.0,
                4,
                0,
                seq_n,
                par_n,
            ]
        )

    return ScenarioOutcome(
        record=BenchRecord.build(
            "PERF_oracle_parallel",
            columns,
            rows,
            phases=phases,
            notes="root-split parallel branch and bound (shared scaled-int "
            "incumbent over a process pool) vs the sequential search; "
            "identical makespans asserted per case; "
            f"host cpu_count={os.cpu_count()}; medians of repeat={repeat} "
            f"after warmup={warmup}",
        ),
        profile_fn=lambda: certified_optimal(largest, workers=2),
    )


def _scenario_fastpath(repeat: int, warmup: int, smoke: bool) -> ScenarioOutcome:
    """Numpy tiers vs the integer references of the same hot loops.

    Both sides call the same public function: the "before" side raises
    every numpy cutoff in :mod:`repro.fastpath` to ``sys.maxsize`` around
    the call, so only the integer reference runs, and the "after" side
    uses the shipped cutoffs.  Equivalence is asserted on every case —
    the same byte-identical contract the differential suite
    (``tests/differential/``) proves property-wise.
    """
    import random
    import sys
    from fractions import Fraction

    from repro import fastpath
    from repro.graphs.generators import empty_graph
    from repro.scheduling.bounds import min_cover_time, min_cover_time_with_loads
    from repro.scheduling.instance import UniformInstance
    from repro.scheduling.list_scheduling import assign_group_greedy

    cutoffs = (
        "GREEDY_NUMPY_MIN_JOBS",
        "COVER_NUMPY_MIN_MACHINES",
        "R2_DP_NUMPY_MIN_STATES",
    )

    def integer_only(fn: Callable[..., Any]) -> Callable[..., Any]:
        # raise every numpy cutoff for the duration of each timed call
        # and restore the shipped values
        def run(*args: Any) -> Any:
            shipped = {name: getattr(fastpath, name) for name in cutoffs}
            for name in cutoffs:
                setattr(fastpath, name, sys.maxsize)
            try:
                return fn(*args)
            finally:
                for name, value in shipped.items():
                    setattr(fastpath, name, value)

        return run

    rng = random.Random(11)
    rows: list[list[Any]] = []
    phases: list[BenchPhase] = []

    def add_case(
        case: str,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        size: dict[str, Any],
        canonical: Callable[[Any], Any] = lambda v: v,
    ) -> None:
        before = measure(integer_only(fn), *args, repeat=repeat, warmup=warmup)
        after = measure(fn, *args, repeat=repeat, warmup=warmup)
        if canonical(before.value) != canonical(after.value):
            raise InvalidInstanceError(f"fastpath equivalence broke on {case}")
        row, case_phases = _speedup_row(case, before, after, size)
        rows.append(row)
        phases.extend(case_phases)

    # greedy list scheduling, unit jobs on identical machines: the
    # closed-form round-robin numpy path
    n, m = (2000, 8) if smoke else (50000, 32)
    unit_inst = UniformInstance(empty_graph(n), [1] * n, [Fraction(1)] * m)
    unit_args = (unit_inst, list(range(n)), list(range(m)))
    add_case(
        f"greedy unit n={n} m={m}",
        assign_group_greedy,
        unit_args,
        {"n": n, "m": m},
        canonical=lambda d: list(d.items()),  # insertion order is part of the contract
    )

    if not smoke:
        # mixed job sizes across few speed groups: long equal-size runs
        # take the vectorized event calendar
        n2, m2 = 20000, 64
        p2 = [rng.randint(1, 20) for _ in range(n2)]
        speeds2 = sorted(
            [Fraction(a, b) for a, b in ((3, 2), (1, 1), (2, 3), (1, 2)) for _ in range(16)],
            reverse=True,
        )
        add_case(
            f"greedy mixed n={n2} m={m2} (4 speed groups)",
            assign_group_greedy,
            (UniformInstance(empty_graph(n2), p2, speeds2), list(range(n2)), list(range(m2))),
            {"n": n2, "m": m2},
            canonical=lambda d: list(d.items()),
        )

    # cover-time bounds: vectorized jump-point search; denominators kept
    # small so the int64 pre-check admits the numpy kernel
    mc, demand = (512, 2500) if smoke else (10000, 50000)
    speeds = sorted(
        (Fraction(rng.randint(1, 8), rng.randint(1, 6)) for _ in range(mc)),
        reverse=True,
    )
    add_case(
        f"min_cover_time m={mc} demand={demand}",
        min_cover_time,
        (speeds, demand),
        {"m": mc, "demand": demand},
    )
    loads = [rng.randint(0, 5) for _ in range(mc)]
    add_case(
        f"min_cover_time_with_loads m={mc} demand={demand}",
        min_cover_time_with_loads,
        (speeds, loads, demand),
        {"m": mc, "demand": demand},
    )

    # Algorithm 5's R2 DP at the shape the e2ebench sparse-fptas workload
    # serves: R, m = 2, sparse G(k, k, 0.8/k), integer times in [1, 20],
    # eps = 1/10; the rows are the ones r2_fptas hands to solve_r2_dp
    from repro.core.r2_reduction import reduce_r2
    from repro.random_graphs.gilbert import gnnp
    from repro.scheduling.dp_unrelated import solve_r2_dp
    from repro.scheduling.instance import UnrelatedInstance

    half = 50 if smoke else 100
    r2 = UnrelatedInstance(
        gnnp(half, 0.8 / half, seed=11),
        [[rng.randint(1, 20) for _ in range(2 * half)] for _ in range(2)],
    )
    reduction = reduce_r2(r2)
    m1_times, m2_times = reduction.dummy_matrix()
    dp_rows: list[list[Fraction | None]] = [
        [*m1_times, reduction.private_load_m1, None],
        [*m2_times, None, reduction.private_load_m2],
    ]
    add_case(
        f"r2 dp R m=2 n={r2.n} deg=0.8 eps=1/10 ({len(dp_rows[0])} DP jobs)",
        lambda times: solve_r2_dp(times, eps=Fraction(1, 10)),
        (dp_rows,),
        {"n": r2.n, "dp_jobs": len(dp_rows[0])},
    )

    profile_args = unit_args
    return ScenarioOutcome(
        record=BenchRecord.build(
            "PERF_fastpath",
            _COLUMNS,
            rows,
            phases=phases,
            notes="numpy tiers at the shipped cutoffs vs the integer references "
            "(every numpy cutoff raised to sys.maxsize) on the same public "
            "APIs; byte-identical results asserted per case; medians of "
            f"repeat={repeat} after warmup={warmup}",
        ),
        profile_fn=lambda: assign_group_greedy(*profile_args),
    )


SCENARIOS: dict[str, Callable[[int, int, bool], ScenarioOutcome]] = {
    "oracle-parallel": _scenario_oracle_parallel,
    "fastpath": _scenario_fastpath,
}

#: scenario names in the order ``repro perf --target all`` runs them
SCENARIO_NAMES = tuple(SCENARIOS)


def run_scenario(
    target: str,
    repeat: int = 5,
    warmup: int = 1,
    smoke: bool = False,
) -> ScenarioOutcome:
    """Run one named perf scenario.

    Parameters
    ----------
    target:
        One of :data:`SCENARIO_NAMES`.
    repeat, warmup:
        The timing policy (see :func:`repro.perf.timer.measure`).
    smoke:
        Use the CI smoke shape: smaller sweeps, same code paths.

    Returns
    -------
    ScenarioOutcome
        The measured record plus a profile target.

    Raises
    ------
    repro.exceptions.InvalidInstanceError
        On an unknown target, or if an optimized hot path disagrees
        with its reference implementation (equivalence is asserted on
        every measured case).
    """
    scenario = SCENARIOS.get(target)
    if scenario is None:
        known = ", ".join(SCENARIO_NAMES)
        raise InvalidInstanceError(f"unknown perf target {target!r}; known: {known}")
    return scenario(repeat, warmup, smoke)
