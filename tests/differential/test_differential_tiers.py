"""The tier harness itself: :func:`diffutil.kernel_tier` reaches exactly
the kernels it names.

Every differential test compares tiers; that comparison proves nothing
if a tier silently runs the wrong code — say a cutoff copied into a
module constant at import time, so patching the one in
``repro.scheduling.dp_unrelated`` no longer moves it.  Each hot loop with a numpy tier is run on one input
below its shipped cutoff and one above, with its numpy kernel wrapped
to count calls:

========== =========== ===========
tier       below       above
========== =========== ===========
reference  integer     integer
numpy      numpy       numpy
shipped    integer     numpy
========== =========== ===========

and every run must give the integer reference's answer.  The cover-time
bounds and greedy list scheduling have no numpy tier, so for them every
tier must run the integer reference on both inputs and reach no numpy
kernel at all.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from diffutil import TIERS, kernel_tier
from repro.graphs.bipartite import BipartiteGraph
from repro.scheduling import bounds, dp_unrelated, list_scheduling
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
#: well past ``R2_DP_NUMPY_MIN_STATES``, three jobs stay below it.  A
#: loop with kernel ``None`` has no numpy tier; its sizes straddle the
#: cutoff its numpy tier used to have (1024 jobs, 256 machines)
LOOPS = {
    "greedy": (None, _greedy, 5, 1100),
    "cover": (None, _cover, 3, 300),
    "cover_with_loads": (None, _cover_with_loads, 3, 300),
    "r2_dp": ("_layer_numpy", _r2_dp, 3, 60),
}

#: every numpy kernel a tier could reach
NUMPY_KERNELS = ("_layer_numpy",)

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
    watched = NUMPY_KERNELS if kernel is None else (kernel,)
    calls: list[str] = []

    def counting(name):
        real = getattr(dp_unrelated, name)

        def run(*args):
            calls.append(name)
            return real(*args)

        return run

    reached = []
    for size in (below, above):
        run = build(size)
        with kernel_tier("reference"):
            expected = run()
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            for name in watched:
                mp.setattr(dp_unrelated, name, counting(name))
            with kernel_tier(tier):
                got = run()
        assert got == expected, size
        reached.append(bool(calls))
    if kernel is None:
        assert reached == [False, False], calls
    else:
        assert tuple(reached) == REACHES_NUMPY[tier]
