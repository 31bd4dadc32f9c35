"""Tests for :mod:`repro.scheduling.lp_rounding` — the [18] baseline."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators
from repro.scheduling.brute_force import brute_force_makespan
from repro.scheduling.instance import UnrelatedInstance
from repro.scheduling.lp_rounding import (
    greedy_min_time_schedule,
    lst_two_approx,
)

F = Fraction


def _empty_instance(times):
    n = len(times[0])
    return UnrelatedInstance(generators.empty_graph(n), times)


def _random_instance(n, m, seed, high=20):
    rng = np.random.default_rng(seed)
    times = rng.integers(1, high, size=(m, n)).tolist()
    return _empty_instance(times)


class TestGreedyMinTime:
    def test_each_job_on_fastest_machine(self):
        inst = _empty_instance([[3, 1], [1, 5]])
        schedule = greedy_min_time_schedule(inst)
        assert schedule.assignment == (1, 0)

    def test_respects_forbidden_pairs(self):
        inst = _empty_instance([[None, 1], [4, 5]])
        schedule = greedy_min_time_schedule(inst)
        assert schedule.assignment == (1, 0)

    def test_upper_bounds_optimum_structure(self):
        inst = _random_instance(8, 3, seed=0)
        schedule = greedy_min_time_schedule(inst)
        assert schedule.makespan >= brute_force_makespan(inst)


class TestLstTwoApprox:
    def test_single_job(self):
        inst = _empty_instance([[4], [2]])
        result = lst_two_approx(inst)
        assert result.schedule.makespan == 2

    def test_zero_jobs(self):
        inst = UnrelatedInstance(generators.empty_graph(0), [[], []])
        result = lst_two_approx(inst)
        assert result.schedule.makespan == 0
        assert result.deadline == 0.0

    def test_two_jobs_two_machines(self):
        # each machine is fast for exactly one job
        inst = _empty_instance([[1, 10], [10, 1]])
        result = lst_two_approx(inst)
        assert result.schedule.makespan == 1

    def test_identical_split(self):
        # four unit jobs, two identical machines: optimum is 2; rounding
        # may add one extra unit job per machine (T + pmax bound)
        inst = _empty_instance([[1, 1, 1, 1], [1, 1, 1, 1]])
        result = lst_two_approx(inst)
        assert result.schedule.makespan <= 3

    @pytest.mark.parametrize("seed", range(6))
    def test_two_approximation_vs_brute_force(self, seed):
        inst = _random_instance(7, 3, seed=seed)
        opt = brute_force_makespan(inst)
        result = lst_two_approx(inst)
        assert result.schedule.makespan <= 2 * opt
        # the LP deadline lower-bounds the optimum (up to tolerance)
        assert result.deadline <= float(opt) * (1 + 1e-3)

    @pytest.mark.parametrize("seed", range(4))
    def test_certified_ratio_at_most_two(self, seed):
        inst = _random_instance(10, 4, seed=100 + seed)
        result = lst_two_approx(inst)
        assert result.certified_ratio <= 2 + 1e-6

    def test_forbidden_pairs_respected(self):
        inst = _empty_instance(
            [[None, 2, 3], [5, None, 4], [6, 7, None]]
        )
        result = lst_two_approx(inst)
        for j, i in enumerate(result.schedule.assignment):
            assert inst.allows(i, j)

    def test_graph_blindness_is_reported(self):
        # two incompatible jobs that LP wants on the same machine
        graph = generators.complete_bipartite(1, 1)
        inst = UnrelatedInstance(graph, [[1, 1], [100, 100]])
        result = lst_two_approx(inst)
        # the rounded schedule ignores the conflict...
        assert not result.schedule.is_feasible() or result.schedule.makespan >= 2
        # ...which is precisely what makes it a price-of-incompatibility probe

    def test_iteration_count_reported(self):
        inst = _random_instance(6, 2, seed=3)
        result = lst_two_approx(inst)
        assert result.lp_iterations >= 1


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(2, 8),
    m=st.integers(2, 3),
    seed=st.integers(0, 10_000),
)
def test_property_lst_within_twice_optimum(n, m, seed):
    inst = _random_instance(n, m, seed=seed, high=12)
    opt = brute_force_makespan(inst)
    result = lst_two_approx(inst)
    assert result.schedule.makespan <= 2 * opt
    assert all(0 <= i < m for i in result.schedule.assignment)
