"""Named perf scenarios: the measured hot paths behind ``repro perf``.

Each scenario builds a deterministic workload sweep, times an optimized
path against the reference it replaces (an integer kernel against its
numpy tier) under the warmup/repeat/median policy of
:mod:`repro.perf.timer`, asserts result equivalence along the way, and
returns the before/after table as a schema-valid
:class:`~repro.perf.record.BenchRecord` (experiment ids
``PERF_<target>``).  ``docs/PERFORMANCE.md`` reproduces these tables;
CI runs the ``smoke`` shapes.
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


def _scenario_fastpath(repeat: int, warmup: int, smoke: bool) -> ScenarioOutcome:
    """The numpy tier vs the integer reference of the same hot loop.

    Both sides call the same public function: the "before" side raises
    the numpy cutoff in :mod:`repro.scheduling.dp_unrelated` to
    ``sys.maxsize`` around the call, so only the integer reference runs,
    and the "after" side uses the shipped cutoff.  Equivalence is asserted — the same
    byte-identical contract the differential suite
    (``tests/differential/``) proves property-wise.
    """
    import random
    import sys
    from fractions import Fraction
    from unittest import mock

    from repro.core.r2_reduction import reduce_r2
    from repro.random_graphs.gilbert import gnnp
    from repro.scheduling import dp_unrelated
    from repro.scheduling.instance import UnrelatedInstance

    # Algorithm 5's R2 DP at the shape the e2ebench sparse-fptas workload
    # serves: R, m = 2, sparse G(k, k, 0.8/k), integer times in [1, 20],
    # eps = 1/10; the rows are the ones r2_fptas hands to solve_r2_dp
    rng = random.Random(11)
    half = 50 if smoke else 100
    r2 = UnrelatedInstance(
        gnnp(half, 0.8 / half, seed=11),
        [[rng.randint(1, 20) for _ in range(2 * half)] for _ in range(2)],
    )
    dp_rows = reduce_r2(r2).dp_rows()

    def dp() -> Any:
        return dp_unrelated.solve_r2_dp(dp_rows, eps=Fraction(1, 10))

    def dp_integer_only() -> Any:
        with mock.patch.object(dp_unrelated, "R2_DP_NUMPY_MIN_STATES", sys.maxsize):
            return dp()

    case = f"r2 dp R m=2 n={r2.n} deg=0.8 eps=1/10 ({len(dp_rows[0])} DP jobs)"
    before = measure(dp_integer_only, repeat=repeat, warmup=warmup)
    after = measure(dp, repeat=repeat, warmup=warmup)
    if before.value != after.value:
        raise InvalidInstanceError(f"fastpath equivalence broke on {case}")
    row, phases = _speedup_row(
        case, before, after, {"n": r2.n, "dp_jobs": len(dp_rows[0])}
    )
    return ScenarioOutcome(
        record=BenchRecord.build(
            "PERF_fastpath",
            _COLUMNS,
            [row],
            phases=phases,
            notes="the numpy tier at the shipped cutoff vs the integer reference "
            "(the cutoff raised to sys.maxsize) on the same public API; "
            "byte-identical results asserted; medians of "
            f"repeat={repeat} after warmup={warmup}",
        ),
        profile_fn=dp,
    )


SCENARIOS: dict[str, Callable[[int, int, bool], ScenarioOutcome]] = {
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
