"""Tests for Theorem 24's reduction (1-PrExt -> Rm)."""

from fractions import Fraction

import pytest

from repro.exceptions import InvalidInstanceError
from repro.graphs.precoloring import (
    claw_no_instance,
    planted_yes_instance,
    solve_prext,
)
from repro.hardness.r_reduction import theorem24_reduction
from repro.scheduling.brute_force import brute_force_makespan

from tests.conftest import grid_rationals


class TestConstruction:
    def test_times_matrix_shape(self):
        prext = planted_yes_instance(5, seed=0)
        r = theorem24_reduction(prext, d=40, m=4)
        assert r.instance.m == 4
        assert r.instance.n == 5

    def test_precolored_jobs_cheap_only_on_their_machine(self):
        prext = planted_yes_instance(6, seed=1)
        r = theorem24_reduction(prext, d=40)
        for c, v in enumerate(prext.precolored):
            for i in range(3):
                expected = 1 if i == c else 40
                assert grid_rationals(r.instance)[i][v] == expected

    def test_other_jobs_unit_on_fast_machines(self):
        prext = planted_yes_instance(6, seed=2)
        r = theorem24_reduction(prext, d=40)
        others = set(range(6)) - set(prext.precolored)
        for v in others:
            assert all(grid_rationals(r.instance)[i][v] == 1 for i in range(3))

    def test_slow_machines_all_d(self):
        prext = planted_yes_instance(5, seed=3)
        r = theorem24_reduction(prext, d=17, m=5)
        for i in (3, 4):
            assert all(t == 17 for t in grid_rationals(r.instance)[i])

    def test_preconditions(self):
        prext = planted_yes_instance(5, seed=4)
        with pytest.raises(InvalidInstanceError):
            theorem24_reduction(prext, d=1)
        with pytest.raises(InvalidInstanceError):
            theorem24_reduction(prext, d=10, m=2)


class TestGap:
    @pytest.mark.parametrize("seed", range(4))
    def test_yes_side(self, seed):
        prext = planted_yes_instance(6, seed=seed)
        coloring = solve_prext(prext)
        assert coloring is not None
        r = theorem24_reduction(prext, d=100)
        s = r.schedule_from_extension(coloring)
        assert s.is_feasible()
        assert s.makespan <= r.yes_makespan_bound

    def test_no_side_exact(self):
        no = claw_no_instance()
        r = theorem24_reduction(no, d=25)
        opt = brute_force_makespan(r.instance)
        assert opt >= r.no_makespan_lower_bound == 25

    def test_yes_optimum_below_gap(self):
        prext = planted_yes_instance(7, seed=5)
        r = theorem24_reduction(prext, d=100)
        opt = brute_force_makespan(r.instance)
        assert opt <= r.yes_makespan_bound < r.no_makespan_lower_bound

    def test_gap_property(self):
        prext = planted_yes_instance(5, seed=6)
        r = theorem24_reduction(prext, d=60)
        assert r.gap == Fraction(60, 5)

    def test_extra_machines_never_help(self):
        """m > 3 only adds slow machines: the YES optimum is unchanged."""
        prext = planted_yes_instance(5, seed=7)
        a = brute_force_makespan(theorem24_reduction(prext, d=30, m=3).instance)
        b = brute_force_makespan(theorem24_reduction(prext, d=30, m=4).instance)
        assert a == b

    def test_rejects_non_extension(self):
        prext = planted_yes_instance(5, seed=8)
        r = theorem24_reduction(prext, d=30)
        with pytest.raises(InvalidInstanceError):
            r.schedule_from_extension([2, 1, 0, 0, 0])
