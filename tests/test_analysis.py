"""Tests for the analysis harness (ratios, tables, suites)."""

from fractions import Fraction

import pytest

from repro.analysis.ratio import RatioStats, collect_ratio_stats, ratio_of
from repro.analysis.suites import (
    job_weight_profile,
    random_r2_instance,
    speed_profile_suite,
    standard_graph_families,
    standard_uniform_suite,
)
from repro.analysis.tables import format_table, render_number


class TestRatio:
    def test_basic(self):
        assert ratio_of(Fraction(3), Fraction(2)) == 1.5

    def test_zero_zero(self):
        assert ratio_of(Fraction(0), Fraction(0)) == 1.0

    def test_zero_reference_positive_value(self):
        with pytest.raises(ZeroDivisionError):
            ratio_of(Fraction(1), Fraction(0))

    def test_stats(self):
        stats = collect_ratio_stats([1.0, 2.0, 3.0])
        assert stats == RatioStats(count=3, mean=2.0, minimum=1.0, maximum=3.0)

    def test_stats_empty_rejected(self):
        with pytest.raises(ValueError):
            collect_ratio_stats([])


class TestTables:
    def test_render_number(self):
        assert render_number(3) == "3"
        assert render_number(Fraction(1, 2)) == "0.500"
        assert render_number(Fraction(4, 2)) == "2"
        assert render_number(1.23456, digits=2) == "1.23"
        assert render_number("x") == "x"

    def test_format_table_alignment(self):
        out = format_table(["name", "v"], [["a", 1], ["bb", 22]], title="T")
        lines = out.split("\n")
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(set(len(l) for l in lines[1:])) == 1  # aligned widths

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestSuites:
    def test_graph_families_cover_names(self):
        fams = standard_graph_families(12, seed=0)
        names = {name for name, _ in fams}
        assert {"empty", "path", "tree", "crown", "gilbert_sparse"} <= names
        for _, g in fams:
            assert g.n >= 1

    def test_weight_profiles(self):
        for kind in ("unit", "uniform", "heavy_tailed", "one_giant"):
            p = job_weight_profile(10, kind, seed=1)
            assert len(p) == 10
            assert all(isinstance(x, int) and x >= 1 for x in p)
        assert job_weight_profile(10, "unit") == (1,) * 10
        giant = job_weight_profile(10, "one_giant", seed=2)
        assert max(giant) >= 10

    def test_weight_profile_unknown(self):
        with pytest.raises(ValueError):
            job_weight_profile(5, "nope")  # type: ignore[arg-type]

    def test_speed_profiles_sorted(self):
        for name, speeds in speed_profile_suite(5, seed=3):
            assert list(speeds) == sorted(speeds, reverse=True)
            assert all(s >= 1 for s in speeds)

    def test_uniform_suite_instances_valid(self):
        suite = standard_uniform_suite(n=10, m=3, seed=4)
        assert len(suite) > 20
        for name, inst in suite:
            assert "/" in name
            assert inst.m == 3

    def test_r2_suite(self):
        inst = random_r2_instance(12, seed=5)
        assert inst.m == 2
        assert all(t is not None for row in inst.grid()[1] for t in row)
