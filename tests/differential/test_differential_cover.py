"""Differential proof: the cover-time bounds return the defined Fraction.

``min_cover_time`` / ``min_cover_time_with_loads`` have a single-valued
answer (the least feasible jump point), so there is no tie-break policy
to pin — the assertion is simply that the integer reference (the only
implementation; it has no numpy tier) returns the *same*
:class:`~fractions.Fraction` as :func:`diffutil.cover_oracle`, which
scans every jump point by definition; in canonical form that means the
same numerator and denominator bytes.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffutil import cover_oracle, speed_tuples
from repro.exceptions import InvalidInstanceError
from repro.scheduling import bounds
from repro.utils.rationals import speed_grid


def _canonical(t: Fraction) -> tuple[int, int]:
    return t.numerator, t.denominator


@given(
    speeds=speed_tuples(),
    demand=st.integers(0, 60),
)
def test_min_cover_time_tiers_match_the_oracle(speeds, demand):
    expected = _canonical(cover_oracle(speeds, [0] * len(speeds), demand))
    assert _canonical(bounds.min_cover_time(speeds, demand)) == expected


@given(
    speeds=speed_tuples(),
    demand=st.integers(0, 40),
    data=st.data(),
)
def test_min_cover_time_with_loads_tiers_match_the_oracle(speeds, demand, data):
    m = len(speeds)
    loads = data.draw(
        st.lists(st.integers(0, 20), min_size=m, max_size=m), label="loads"
    )
    expected = _canonical(cover_oracle(speeds, loads, demand))
    got = bounds.min_cover_time_with_loads(speeds, loads, demand)
    assert _canonical(got) == expected


@given(k=st.integers(1, 5), n=st.integers(1, 12), demand=st.integers(1, 40))
def test_hardness_style_speeds(k, n, demand):
    """The Theorem 8 speed geometry (s_i = 1/(k n)) — tiny rationals with
    a shared denominator, the shape the hardness pipeline feeds in."""
    speeds = (Fraction(49 * k * k), Fraction(5 * k), Fraction(1)) + tuple(
        Fraction(1, k * n) for _ in range(3)
    )
    expected = cover_oracle(speeds, [0] * len(speeds), demand)
    assert bounds.min_cover_time(speeds, demand) == expected


@given(
    base=st.integers(2**40, 2**62),
    offsets=st.lists(st.integers(0, 3), min_size=2, max_size=4),
    den=st.integers(1, 7),
    demand=st.integers(1, 12),
    data=st.data(),
)
def test_near_tied_jump_points_are_ordered_exactly(base, offsets, den, demand, data):
    """Large speeds a few units apart put jump points of different
    machines ``1 / (s_i * s_j)`` apart, the closest two distinct ones
    can be; the integer jump ticks must still order them exactly."""
    speeds = tuple(sorted((Fraction(base + o, den) for o in offsets), reverse=True))
    loads = data.draw(
        st.lists(st.integers(0, 3), min_size=len(speeds), max_size=len(speeds)),
        label="loads",
    )
    expected = _canonical(cover_oracle(speeds, loads, demand))
    got = bounds.min_cover_time_with_loads(speeds, loads, demand)
    assert _canonical(got) == expected


def test_bigint_speeds_fall_back_not_truncate():
    """Scales beyond 2^63 must stay exact: the integer reference runs on
    arbitrary-precision integers."""
    primes = [2305843009213693951, 2305843009213693967, 2305843009213693973]
    speeds = tuple(Fraction(p, 7) for p in reversed(primes))
    quantum, _ = speed_grid(speeds)
    assert quantum > 2**63

    assert bounds.min_cover_time(speeds, 3) == cover_oracle(speeds, [0, 0, 0], 3)


def test_error_paths_match_reference():
    with pytest.raises(InvalidInstanceError):
        bounds.min_cover_time([], 1)
    with pytest.raises(InvalidInstanceError):
        bounds.min_cover_time_with_loads([Fraction(1)], [0, 0], 1)
    assert bounds.min_cover_time([], 0) == 0
    assert bounds.min_cover_time_with_loads([], [], 0) == 0
