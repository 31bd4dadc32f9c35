"""The tier harness itself: :func:`diffutil.kernel_tier` reaches exactly
the kernels it names.

Every differential test compares tiers; that comparison proves nothing
if a tier silently runs the wrong code — say a cutoff copied into a
module constant at import time, so patching ``repro.fastpath`` no
longer moves it.  Each hot loop with a numpy tier is run on one input
below its shipped cutoff and one above, with its numpy kernel wrapped
to count calls:

========== =========== ===========
tier       below       above
========== =========== ===========
reference  integer     integer
numpy      numpy       numpy
shipped    integer     numpy
========== =========== ===========

and every run must give the integer reference's answer.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from diffutil import TIERS, kernel_tier
from repro import fastpath
from repro.fastpath import kernels_numpy
from repro.graphs.bipartite import BipartiteGraph
from repro.scheduling import bounds, list_scheduling
from repro.scheduling.dp_unrelated import solve_r2_dp
from repro.scheduling.instance import UniformInstance


def _greedy(n: int):
    rng = random.Random(n)
    p = [rng.randint(1, 9) for _ in range(n)]
    speeds = (Fraction(3), Fraction(2), Fraction(2), Fraction(1, 2))
    inst = UniformInstance(BipartiteGraph(n, [], side=[0] * n), p, speeds)

    jobs, machines = list(range(n)), list(range(4))

    def run():
        return list(list_scheduling.assign_group_greedy(inst, jobs, machines).items())

    return run


def _cover_speeds(m: int) -> tuple[Fraction, ...]:
    rng = random.Random(m)
    return tuple(
        sorted(
            (Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)),
            reverse=True,
        )
    )


def _cover(m: int):
    speeds = _cover_speeds(m)
    return lambda: bounds.min_cover_time(speeds, 3 * m + 1)


def _cover_with_loads(m: int):
    speeds = _cover_speeds(m)
    loads = [random.Random(-m).randint(0, 5) for _ in range(m)]
    return lambda: bounds.min_cover_time_with_loads(speeds, loads, 2 * m + 1)


def _r2_dp(n: int):
    rng = random.Random(n)
    rows = [
        [Fraction(rng.randint(1, 60), rng.randint(1, 4)) for _ in range(n)]
        for _ in range(2)
    ]

    def run():
        result = solve_r2_dp(rows)
        return result.makespan, result.assignment

    return run


#: loop -> (numpy kernel it calls, input builder, size below the
#: shipped cutoff, size above it); an R2 DP over 60 jobs reaches layers
#: well past ``R2_DP_NUMPY_MIN_STATES``, three jobs stay below it
LOOPS = {
    "greedy": (
        "assign_group_greedy_numpy",
        _greedy,
        5,
        fastpath.GREEDY_NUMPY_MIN_JOBS + 76,
    ),
    "cover": (
        "min_cover_time_with_loads_numpy",
        _cover,
        3,
        fastpath.COVER_NUMPY_MIN_MACHINES + 44,
    ),
    "cover_with_loads": (
        "min_cover_time_with_loads_numpy",
        _cover_with_loads,
        3,
        fastpath.COVER_NUMPY_MIN_MACHINES + 44,
    ),
    "r2_dp": ("r2_dp_layer_numpy", _r2_dp, 3, 60),
}

#: (below, above) -> whether the tier's runs reach the numpy kernel
REACHES_NUMPY = {
    "reference": (False, False),
    "numpy": (True, True),
    "shipped": (False, True),
}


@pytest.mark.parametrize("tier", list(TIERS))
@pytest.mark.parametrize("loop", list(LOOPS))
def test_tier_reaches_the_kernels_it_names(loop, tier):
    kernel, build, below, above = LOOPS[loop]
    real = getattr(kernels_numpy, kernel)
    calls: list[int] = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    reached = []
    for size in (below, above):
        run = build(size)
        with kernel_tier("reference"):
            expected = run()
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels_numpy, kernel, counting)
            with kernel_tier(tier):
                got = run()
        assert got == expected, size
        reached.append(bool(calls))
    assert tuple(reached) == REACHES_NUMPY[tier]
