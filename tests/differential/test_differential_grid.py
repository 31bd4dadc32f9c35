"""Property tests for the integer time grid of uniform speeds.

:func:`repro.utils.rationals.speed_grid` is the one integer scale the
cover bound, list scheduling and the exact oracle share: ``Q`` is the
lcm of the speed numerators and one unit of work on machine ``i`` takes
``u_i = den_i * Q / num_i`` ticks of ``1 / Q``.  The grid must round-trip
exactly, ``Q`` must be the least such scale, and nothing may truncate
when ``Q`` blows past machine-word width: Python integers are arbitrary
precision, and the big-int properties here deliberately cross ``2**63``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffutil import cover_oracle, greedy_oracle
from repro.exceptions import InvalidInstanceError
from repro.graphs.bipartite import BipartiteGraph
from repro.scheduling import bounds, list_scheduling
from repro.scheduling.instance import UniformInstance
from repro.utils.rationals import speed_grid

fracs = st.fractions(
    min_value=Fraction(1, 10**6),
    max_value=Fraction(10**6),
    max_denominator=10**6,
)

#: pairwise-coprime primes near 2**61: any two of them as numerators
#: put Q past 2**63
BIG_PRIMES = (2305843009213693951, 2305843009213693967, 2305843009213693973)


@given(speeds=st.lists(fracs, min_size=1, max_size=8))
def test_grid_round_trips_exactly(speeds):
    quantum, unit_times = speed_grid(speeds)
    assert len(unit_times) == len(speeds)
    for s, u in zip(speeds, unit_times):
        assert u * s.numerator == quantum * s.denominator
        # one unit of work on the machine takes u / Q = 1 / s
        assert Fraction(u, quantum) == 1 / s


@given(speeds=st.lists(fracs, min_size=1, max_size=8))
def test_quantum_is_the_lcm_of_the_numerators(speeds):
    """Not just a common multiple: a coarser ``Q`` would round-trip too."""
    quantum, unit_times = speed_grid(speeds)
    assert quantum == math.lcm(*(s.numerator for s in speeds))
    # minimal: no common factor of Q and every unit time can be divided out
    assert math.gcd(quantum, *unit_times) == 1


@given(
    numerators=st.permutations(BIG_PRIMES),
    denominators=st.lists(st.integers(1, 10**9), min_size=3, max_size=3),
    demand=st.integers(1, 12),
    loads=st.lists(st.integers(0, 3), min_size=3, max_size=3),
)
def test_cover_bound_is_exact_past_2_63(numerators, denominators, demand, loads):
    speeds = tuple(Fraction(num, den) for num, den in zip(numerators, denominators))
    quantum, _ = speed_grid(speeds)
    assert quantum > 2**63
    expected = cover_oracle(speeds, loads, demand)
    assert bounds.min_cover_time_with_loads(speeds, loads, demand) == expected


@given(
    denominators=st.lists(st.integers(1, 10**9), min_size=3, max_size=3),
    p=st.lists(st.integers(1, 6), min_size=1, max_size=12),
    machines=st.permutations([0, 1, 2]),
)
def test_greedy_is_exact_past_2_63(denominators, p, machines):
    speeds = sorted(
        (Fraction(num, den) for num, den in zip(BIG_PRIMES, denominators)),
        reverse=True,
    )
    quantum, _ = speed_grid(speeds)
    assert quantum > 2**63
    n = len(p)
    inst = UniformInstance(BipartiteGraph(n, [], side=[0] * n), p, speeds)
    jobs = list(range(n))
    got = list_scheduling.assign_group_greedy(inst, jobs, machines)
    assert list(got.items()) == list(greedy_oracle(inst, jobs, machines).items())


class _DriftingSpeed:
    """A corrupt speed whose numerator changes between reads."""

    denominator = 1

    def __init__(self) -> None:
        self._reads = 0

    @property
    def numerator(self) -> int:
        self._reads += 1
        return 3 if self._reads == 1 else 2


@pytest.mark.parametrize(
    "speeds",
    [
        [Fraction(1, 2), Fraction(0)],
        [Fraction(-1, 3)],
        [_DriftingSpeed()],
    ],
    ids=["zero", "negative", "drifting"],
)
def test_corrupt_speed_raises_typed_error(speeds):
    """A speed that fails the round trip is a typed error, never a
    silently wrong grid."""
    with pytest.raises(InvalidInstanceError):
        speed_grid(speeds)
