"""Tests for exact rational helpers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.utils.rationals import (
    as_fraction,
    as_fraction_tuple,
    ceil_fraction,
    floor_fraction,
    time_grid,
)


class TestAsFraction:
    def test_int_passthrough(self):
        assert as_fraction(7) == Fraction(7)

    def test_fraction_identity(self):
        f = Fraction(3, 7)
        assert as_fraction(f) is f

    def test_float_uses_decimal_meaning(self):
        # 0.1 means one tenth, not the binary double closest to it
        assert as_fraction(0.1) == Fraction(1, 10)

    def test_string(self):
        assert as_fraction("3/4") == Fraction(3, 4)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(float("inf"))
        with pytest.raises(ValueError):
            as_fraction(float("nan"))

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            as_fraction([1])  # type: ignore[arg-type]

    def test_tuple_helper(self):
        assert as_fraction_tuple([1, "1/2"]) == (Fraction(1), Fraction(1, 2))


class TestFloorCeil:
    @given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
    def test_floor_matches_python(self, num, den):
        f = Fraction(num, den)
        assert floor_fraction(f) == num // den

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
    def test_ceil_matches_python(self, num, den):
        f = Fraction(num, den)
        assert ceil_fraction(f) == -((-num) // den)

    def test_int_inputs(self):
        assert floor_fraction(5) == 5
        assert ceil_fraction(5) == 5

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_floor_le_value_le_ceil(self, num, den):
        f = Fraction(num, den)
        assert floor_fraction(f) <= f <= ceil_fraction(f)


class TestRescale:
    def test_lcm_of_denominators(self):
        assert time_grid([[Fraction(1, 2), Fraction(1, 3), 5]])[0] == 6

    def test_rescale_exact(self):
        rows = [[Fraction(1, 2), Fraction(2, 3)], [1, Fraction(5, 6)]]
        scale, ticks = time_grid(rows)
        assert scale == 6
        assert ticks == [[3, 4], [6, 5]]
        for row, tick_row in zip(rows, ticks):
            for v, t in zip(row, tick_row):
                assert Fraction(t, scale) == v

    @given(
        st.lists(
            st.lists(
                st.none() | st.fractions(min_value=0, max_value=100, max_denominator=50),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_rescale_roundtrip(self, rows):
        scale, ticks = time_grid(rows)
        assert scale >= 1
        for row, tick_row in zip(rows, ticks):
            for v, t in zip(row, tick_row):
                if v is None:
                    assert t is None
                else:
                    assert isinstance(t, int) and Fraction(t, scale) == v
        # the least such scale: no common factor is left to divide out
        assert math.gcd(scale, *(t for row in ticks for t in row if t is not None)) == 1

    def test_all_ints_scale_one(self):
        scale, ticks = time_grid([[1, 2, 3], [4, None, 0]])
        assert scale == 1 and ticks == [[1, 2, 3], [4, None, 0]]

    def test_none_passthrough(self):
        scale, ticks = time_grid([[None, Fraction(1, 4)], [Fraction(1, 2), None]])
        assert scale == 4 and ticks == [[None, 1], [2, None]]
