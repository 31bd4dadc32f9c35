"""Tests for Algorithm 1 (Theorem 9: sqrt(sum p_j)-approximation)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.ablations import sqrt_approx_ablation
from repro.core.sqrt_approx import (
    _two_fastest_schedule,
    satisfies_sqrt_guarantee,
    sqrt_approx_schedule,
)
from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import (
    complete_bipartite,
    empty_graph,
    matching_graph,
    path_graph,
    star,
)
from repro.random_graphs.gilbert import gnnp
from repro.scheduling.bounds import min_cover_time, pmax_lower_bound
from repro.scheduling.brute_force import brute_force_makespan
from repro.scheduling.instance import UniformInstance, unit_uniform_instance

from tests.conftest import random_uniform_instance


class TestFeasibility:
    def test_random_instances(self):
        rng = np.random.default_rng(100)
        for _ in range(30):
            inst = random_uniform_instance(rng)
            res = sqrt_approx_schedule(inst)
            assert res.schedule.is_feasible()

    def test_two_approx_solver_variant(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            inst = random_uniform_instance(rng)
            res = sqrt_approx_schedule(inst, s1_solver="two_approx")
            assert res.schedule.is_feasible()

    def test_empty_instance(self):
        inst = UniformInstance(BipartiteGraph(0, []), [], [1, 1])
        assert sqrt_approx_schedule(inst).schedule.makespan == 0

    def test_single_machine_no_edges(self):
        inst = UniformInstance(empty_graph(3), [1, 2, 3], [2])
        res = sqrt_approx_schedule(inst)
        assert res.schedule.makespan == 3

    def test_single_machine_with_edges_raises(self):
        inst = UniformInstance(matching_graph(1), [1, 1], [1])
        with pytest.raises(InfeasibleInstanceError):
            sqrt_approx_schedule(inst)

    @pytest.mark.parametrize(
        "graph, p, speeds, eligible",
        [
            # sum p <= 16: the base case drops to the two fastest machines
            (BipartiteGraph(2, [(0, 1)]), [3, 3], [2, 2, 1, 1], [[3], None]),
            # forbids M_1, which S1 needs
            (BipartiteGraph(4, [(0, 1)]), [9, 9, 1, 1], [2, 1, 1], [[1, 2], None, None, None]),
            # allows both M_1 and M_2
            (BipartiteGraph(4, [(0, 1)]), [9, 9, 1, 1], [2, 1, 1], [[0, 1], None, None, None]),
        ],
        ids=["base-case", "forbids-m1", "allows-m1-m2"],
    )
    def test_eligibility_masks_refused(self, graph, p, speeds, eligible):
        inst = UniformInstance(graph, p, speeds, eligible=eligible)
        with pytest.raises(InvalidInstanceError, match="eligibility"):
            sqrt_approx_schedule(inst)
        with pytest.raises(InvalidInstanceError, match="eligibility"):
            sqrt_approx_ablation(inst, "paper")


class TestGuarantee:
    def test_theorem9_vs_bruteforce(self):
        rng = np.random.default_rng(102)
        for _ in range(30):
            inst = random_uniform_instance(rng, max_jobs=8, max_machines=4)
            res = sqrt_approx_schedule(inst)
            opt = brute_force_makespan(inst)
            assert satisfies_sqrt_guarantee(res, opt, inst.total_p)

    def test_capacity_bound_is_valid_lower_bound(self):
        rng = np.random.default_rng(103)
        checked = 0
        for _ in range(30):
            inst = random_uniform_instance(rng, max_jobs=8, max_machines=4)
            res = sqrt_approx_schedule(inst)
            if res.capacity_bound is None:
                continue
            checked += 1
            opt = brute_force_makespan(inst)
            assert res.capacity_bound <= opt
        assert checked >= 5

    def test_brute_force_branch_is_exact(self):
        # sum p <= 4 goes through step 1
        inst = UniformInstance(matching_graph(1), [2, 2], [2, 1])
        res = sqrt_approx_schedule(inst)
        assert res.chosen == "brute_force"
        assert res.schedule.makespan == brute_force_makespan(inst)


class TestStructure:
    def test_s2_built_when_independent_set_exists(self):
        # star: heavy centre + light leaves, m >= 3; sum p > 16 so the
        # algorithm takes the approximation path rather than step 1
        g = star(6)
        inst = UniformInstance(g, [19, 1, 1, 1, 1, 1, 1], [4, 2, 1])
        res = sqrt_approx_schedule(inst)
        assert res.s2 is not None
        assert res.independent_set is not None
        assert res.capacity_bound is not None

    def test_s2_skipped_on_two_machines(self):
        g = path_graph(4)
        inst = UniformInstance(g, [5, 5, 5, 5], [2, 1])
        res = sqrt_approx_schedule(inst)
        assert res.s2 is None
        assert res.chosen == "s1"

    def test_no_independent_set_when_heavy_conflict(self):
        # two adjacent heavy jobs: I cannot exist
        g = BipartiteGraph(4, [(0, 1)])
        inst = UniformInstance(g, [10, 10, 1, 1], [2, 1, 1])
        res = sqrt_approx_schedule(inst)
        assert res.independent_set is None
        assert res.s2 is None

    def test_independent_set_contains_heavy_jobs(self):
        g = BipartiteGraph(5, [(0, 2), (1, 2)])
        p = [8, 8, 1, 1, 1]  # sum = 19, heavy: p^2 >= 19 -> jobs 0, 1
        inst = UniformInstance(g, p, [3, 2, 1])
        res = sqrt_approx_schedule(inst)
        assert res.independent_set is not None
        assert {0, 1} <= res.independent_set

    def test_takes_better_candidate(self):
        rng = np.random.default_rng(104)
        for _ in range(20):
            inst = random_uniform_instance(rng)
            res = sqrt_approx_schedule(inst)
            if res.chosen == "brute_force":
                continue
            # res.s1 is None when skipped, so build S1 here
            s1 = _two_fastest_schedule(inst, "fptas")
            assert res.schedule.makespan == min(
                (s.makespan for s in (s1, res.s2) if s is not None)
            )

    def test_s2_can_win_with_many_machines(self):
        """With many machines and a spread-out graph, the capacity schedule
        must beat the two-machine fallback at least sometimes."""
        rng = np.random.default_rng(105)
        wins = 0
        for _ in range(20):
            g = matching_graph(6)
            p = [int(x) for x in rng.integers(1, 6, 12)]
            inst = UniformInstance(g, p, [2, 1, 1, 1, 1, 1])
            res = sqrt_approx_schedule(inst)
            if res.chosen == "s2":
                wins += 1
        assert wins > 0


class TestExactSquaredComparison:
    def test_guarantee_checker(self):
        g = matching_graph(1)
        inst = UniformInstance(g, [3, 3], [1, 1])
        res = sqrt_approx_schedule(inst)
        # makespan 3, opt 3, sum p = 6: 9 <= 6 * 9 holds
        assert satisfies_sqrt_guarantee(res, Fraction(3), 6)
        # an impossible claim fails: 9 <= 6 * (1/4) is false
        assert not satisfies_sqrt_guarantee(res, Fraction(1, 2), 6)


def _gnnp_instance(seed, k, degree, m, p_max=20):
    """``G(k, k, degree / k)`` with integer ``p`` and rational speeds."""
    rng = np.random.default_rng(seed)
    graph = gnnp(k, min(1.0, degree / k), seed=rng)
    p = [int(x) for x in rng.integers(1, p_max + 1, size=graph.n)]
    nums = rng.integers(2, 13, size=m)
    dens = rng.integers(1, 4, size=m)
    speeds = sorted(
        (Fraction(int(a), int(b)) for a, b in zip(nums, dens)), reverse=True
    )
    return UniformInstance(graph, p, speeds)


def _assert_skip_keeps_answer(inst):
    """Algorithm 1 returns what it returned when it always built S1."""
    res = sqrt_approx_schedule(inst)
    s1, s2 = _two_fastest_schedule(inst, "fptas"), res.s2
    expected = s2 if s2 is not None and s2.makespan < s1.makespan else s1
    assert res.schedule.assignment == expected.assignment
    if res.s1 is None:
        assert res.chosen == "s2"
        two_machine_bound = max(
            min_cover_time(inst.speeds[:2], inst.total_p), pmax_lower_bound(inst)
        )
        assert s1.makespan >= two_machine_bound > s2.makespan
    else:
        assert res.s1.assignment == s1.assignment
    return res


class TestSkippedS1:
    def test_skipped_on_dense_many_machines(self):
        # shaped like E10's instances: G(100, 100, 3/100) on 8 machines
        res = _assert_skip_keeps_answer(_gnnp_instance(0, 100, 3.0, 8))
        assert res.s1 is None

    def test_built_and_wins_on_sparse_three_machines(self):
        res = _assert_skip_keeps_answer(_gnnp_instance(0, 20, 0.8, 3))
        assert res.s2 is not None and res.chosen == "s1"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(4, 30),
    degree=st.sampled_from([0.8, 3.0]),
    m=st.integers(3, 8),
)
def test_property_skipping_s1_never_changes_the_answer(seed, k, degree, m):
    inst = _gnnp_instance(seed, k, degree, m)
    assume(inst.total_p > 16)
    _assert_skip_keeps_answer(inst)
