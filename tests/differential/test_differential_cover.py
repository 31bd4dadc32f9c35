"""Differential proof: every cover-time tier returns the defined Fraction.

``min_cover_time`` / ``min_cover_time_with_loads`` have a single-valued
answer (the least feasible jump point), so there is no tie-break policy
to pin — the assertion is simply that every tier returns the *same*
:class:`~fractions.Fraction` as :func:`diffutil.cover_oracle`, which
scans every jump point by definition; in canonical form that means the
same numerator and denominator bytes.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffutil import TIERS, cover_oracle, kernel_tier, speed_tuples
from repro import fastpath
from repro.exceptions import InvalidInstanceError
from repro.fastpath import kernels_numpy
from repro.scheduling import bounds


def _canonical(t: Fraction) -> tuple[int, int]:
    return t.numerator, t.denominator


@given(
    speeds=speed_tuples(),
    demand=st.integers(0, 60),
)
def test_min_cover_time_tiers_match_the_oracle(speeds, demand):
    expected = _canonical(cover_oracle(speeds, [0] * len(speeds), demand))
    for tier in TIERS:
        with kernel_tier(tier):
            assert _canonical(bounds.min_cover_time(speeds, demand)) == expected, tier


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
    for tier in TIERS:
        with kernel_tier(tier):
            got = bounds.min_cover_time_with_loads(speeds, loads, demand)
        assert _canonical(got) == expected, tier


@given(k=st.integers(1, 5), n=st.integers(1, 12), demand=st.integers(1, 40))
def test_hardness_style_speeds(k, n, demand):
    """The Theorem 8 speed geometry (s_i = 1/(k n)) — tiny rationals with
    a shared denominator, the shape the hardness pipeline feeds in."""
    speeds = (Fraction(49 * k * k), Fraction(5 * k), Fraction(1)) + tuple(
        Fraction(1, k * n) for _ in range(3)
    )
    expected = cover_oracle(speeds, [0] * len(speeds), demand)
    for tier in TIERS:
        with kernel_tier(tier):
            assert bounds.min_cover_time(speeds, demand) == expected, tier


def test_bigint_speeds_fall_back_not_truncate():
    """Scales beyond 2^63 must be exact: the numpy tier declines
    (FastpathUnavailable), the integer reference answers exactly."""
    primes = [2305843009213693951, 2305843009213693967, 2305843009213693973]
    speeds = tuple(Fraction(1, p) for p in primes)
    scaled, scale = fastpath.scaled_speeds(speeds)
    assert scale > 2**63

    with pytest.raises(kernels_numpy.FastpathUnavailable):
        kernels_numpy.min_cover_time_with_loads_numpy(scaled, scale, [0, 0, 0], 3)
    # the public API silently falls back to the exact integer reference
    expected = cover_oracle(speeds, [0, 0, 0], 3)
    for tier in TIERS:
        with kernel_tier(tier):
            assert bounds.min_cover_time(speeds, 3) == expected, tier


def test_error_paths_match_reference():
    for tier in TIERS:
        with kernel_tier(tier):
            with pytest.raises(InvalidInstanceError):
                bounds.min_cover_time([], 1)
            with pytest.raises(InvalidInstanceError):
                bounds.min_cover_time_with_loads([Fraction(1)], [0, 0], 1)
            assert bounds.min_cover_time([], 0) == 0
            assert bounds.min_cover_time_with_loads([], [], 0) == 0
