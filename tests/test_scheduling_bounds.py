"""Tests for exact capacity lower bounds (C**max machinery)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import InvalidInstanceError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import path_graph
from repro.scheduling.bounds import (
    area_lower_bound,
    min_cover_time,
    pmax_lower_bound,
    uniform_capacity_lower_bound,
    unrelated_lower_bound,
)
from repro.scheduling.instance import UniformInstance, UnrelatedInstance
from repro.utils.rationals import floor_fraction


def capacity_at(speeds, t):
    return sum(floor_fraction(s * t) for s in speeds)


class TestMinCoverTime:
    def test_zero_demand(self):
        assert min_cover_time([Fraction(1)], 0) == 0

    def test_single_unit_machine(self):
        assert min_cover_time([Fraction(1)], 5) == 5

    def test_fast_machine(self):
        assert min_cover_time([Fraction(3)], 10) == Fraction(10, 3)

    def test_mixed_speeds_known_value(self):
        # speeds 3, 2, 1/2: at t=2 capacities are 6+4+1 = 11 >= 10;
        # strictly before t=2 the total is at most 5+3+0 = ... verify minimal
        t = min_cover_time([Fraction(3), Fraction(2), Fraction(1, 2)], 10)
        assert t == 2

    def test_no_machines_rejected(self):
        with pytest.raises(InvalidInstanceError):
            min_cover_time([], 1)

    @settings(max_examples=80)
    @given(
        st.lists(
            st.fractions(min_value=Fraction(1, 8), max_value=60, max_denominator=8),
            min_size=1,
            max_size=6,
        ),
        st.integers(1, 400),
    )
    def test_minimality_property(self, speeds, demand):
        """Result covers demand; any strictly earlier time does not."""
        t = min_cover_time(speeds, demand)
        assert capacity_at(speeds, t) >= demand
        # the predecessor jump point must fail: check just before t
        eps = Fraction(1, 10**9)
        if t > 0:
            assert capacity_at(speeds, t - eps) < demand

    def test_result_is_jump_point(self):
        speeds = [Fraction(5, 3), Fraction(2, 7)]
        t = min_cover_time(speeds, 17)
        # t must equal c / s_i for some machine and integer c
        assert any((s * t).denominator == 1 for s in speeds)


class TestSimpleBounds:
    def test_area_bound(self):
        inst = UniformInstance(path_graph(3), [2, 2, 2], [2, 1])
        assert area_lower_bound(inst) == Fraction(6, 3)

    def test_pmax_bound(self):
        inst = UniformInstance(path_graph(3), [2, 9, 2], [3, 1])
        assert pmax_lower_bound(inst) == Fraction(3)

    def test_pmax_empty(self):
        inst = UniformInstance(BipartiteGraph(0, []), [], [1])
        assert pmax_lower_bound(inst) == 0


class TestUniformCapacityBound:
    def test_is_lower_bound_on_optimum(self):
        """C** <= C* on random instances, checked against brute force."""
        import numpy as np

        from repro.graphs.independent_set import max_weight_independent_set
        from repro.scheduling.brute_force import brute_force_optimal
        from tests.conftest import random_uniform_instance

        rng = np.random.default_rng(33)
        for _ in range(15):
            inst = random_uniform_instance(rng, max_jobs=8, max_machines=3)
            mwis = max_weight_independent_set(inst.graph, inst.p)
            rest = inst.total_p - sum(inst.p[j] for j in mwis)
            if inst.m < 2 and rest:
                continue
            bound = uniform_capacity_lower_bound(inst, rest)
            opt = brute_force_optimal(inst).makespan
            assert bound <= opt, (bound, opt)

    def test_second_condition_raises_with_one_machine(self):
        inst = UniformInstance(path_graph(2), [1, 1], [1])
        with pytest.raises(InvalidInstanceError):
            uniform_capacity_lower_bound(inst, 1)

    def test_monotone_in_demand(self):
        inst = UniformInstance(path_graph(4), [3, 1, 4, 1], [3, 2, 1])
        bounds = [uniform_capacity_lower_bound(inst, d) for d in (0, 2, 5, 9)]
        assert bounds == sorted(bounds)

    def test_pmax_condition_dominates_when_one_giant(self):
        inst = UniformInstance(BipartiteGraph(3, []), [100, 1, 1], [2, 1, 1])
        bound = uniform_capacity_lower_bound(inst, 0)
        assert bound >= Fraction(100, 2)


class TestUnrelatedBound:
    def test_max_min_row(self):
        g = BipartiteGraph(2, [])
        inst = UnrelatedInstance(g, [[10, 1], [4, 8]])
        # per-job minima: 4, 1 -> bound = max(4, 5/2) = 4
        assert unrelated_lower_bound(inst) == 4

    def test_volume_dominates(self):
        g = BipartiteGraph(4, [])
        inst = UnrelatedInstance(g, [[3, 3, 3, 3], [3, 3, 3, 3]])
        assert unrelated_lower_bound(inst) == Fraction(12, 2)

    def test_respects_forbidden(self):
        g = BipartiteGraph(1, [])
        inst = UnrelatedInstance(g, [[None], [7]])
        assert unrelated_lower_bound(inst) == 7

    def test_empty(self):
        g = BipartiteGraph(0, [])
        inst = UnrelatedInstance(g, [[], []])
        assert unrelated_lower_bound(inst) == 0


class TestMinCoverTimeWithLoads:
    def test_zero_loads_reduces_to_min_cover_time(self):
        from repro.scheduling.bounds import min_cover_time_with_loads

        speeds = [Fraction(3), Fraction(2), Fraction(1)]
        for demand in (0, 1, 5, 17):
            assert min_cover_time_with_loads(speeds, [0, 0, 0], demand) == (
                min_cover_time(speeds, demand)
            )

    def test_zero_demand_is_the_frontier(self):
        from repro.scheduling.bounds import min_cover_time_with_loads

        speeds = [Fraction(2), Fraction(1)]
        assert min_cover_time_with_loads(speeds, [5, 1], 0) == Fraction(5, 2)

    def test_loaded_machines_push_the_answer_up(self):
        from repro.scheduling.bounds import min_cover_time_with_loads

        speeds = [Fraction(1), Fraction(1)]
        # 2 extra units on empty machines: T = 1; with 3 units already on
        # one machine the best is 3 on one, 2 on the other -> T = 3
        assert min_cover_time_with_loads(speeds, [0, 0], 2) == 1
        assert min_cover_time_with_loads(speeds, [3, 0], 2) == 3

    def test_exhaustive_against_definition(self):
        from repro.scheduling.bounds import min_cover_time_with_loads

        speeds = [Fraction(3), Fraction(2)]
        for loads in ([0, 0], [2, 1], [5, 0], [1, 4]):
            for demand in range(0, 8):
                t = min_cover_time_with_loads(speeds, loads, demand)
                frontier = max(
                    Fraction(l) / s for l, s in zip(loads, speeds)
                )
                assert t >= frontier
                residual = sum(
                    max(0, floor_fraction(s * t) - l)
                    for s, l in zip(speeds, loads)
                )
                assert residual >= demand
                # minimality: a slightly smaller t fails some condition
                eps = Fraction(1, 1000)
                smaller = t - eps
                if smaller >= 0 and demand > 0:
                    ok_frontier = smaller >= frontier
                    ok_residual = (
                        sum(
                            max(0, floor_fraction(s * smaller) - l)
                            for s, l in zip(speeds, loads)
                        )
                        >= demand
                    )
                    assert not (ok_frontier and ok_residual)

    def test_shape_mismatch_raises(self):
        from repro.scheduling.bounds import min_cover_time_with_loads

        with pytest.raises(InvalidInstanceError):
            min_cover_time_with_loads([Fraction(1)], [0, 0], 1)

    def test_no_machines_raises_on_demand(self):
        from repro.scheduling.bounds import min_cover_time_with_loads

        with pytest.raises(InvalidInstanceError):
            min_cover_time_with_loads([], [], 3)
        assert min_cover_time_with_loads([], [], 0) == 0


class TestUnrelatedBoundInvariant:
    def test_mutated_instance_raises_not_asserts(self):
        """The 'no eligible machine' guard must survive ``python -O``:
        an InvalidInstanceError, not a bare assert."""
        g = BipartiteGraph(2, [])
        inst = UnrelatedInstance(g, [[1, 2], [3, 4]])
        # simulate post-construction corruption through the slot
        # descriptor (the validated constructor would reject this, as a
        # deserialisation bug might not)
        broken_ticks = ((None, 2), (None, 4))
        type(inst).ticks.__set__(inst, broken_ticks)
        with pytest.raises(InvalidInstanceError):
            unrelated_lower_bound(inst)
