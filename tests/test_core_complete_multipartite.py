"""Tests for :mod:`repro.core.complete_multipartite` — the exact unary
algorithm for unit jobs with complete (multi)partite conflicts ([20]/[24])."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.complete_multipartite import (
    _capacities,
    _feasible_groups,
    complete_multipartite_min_time,
    schedule_complete_bipartite_unit,
)
from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.graphs import generators
from repro.graphs.bipartite import BipartiteGraph
from repro.scheduling.brute_force import brute_force_makespan
from repro.scheduling.instance import UniformInstance, unit_uniform_instance

F = Fraction


def _mk_speeds(values):
    return [F(v) for v in values]


class TestMinTimeBasics:
    def test_no_jobs(self):
        sol = complete_multipartite_min_time([], _mk_speeds([2, 1]))
        assert sol.makespan == 0
        assert sol.machine_part == (None, None)

    def test_zero_parts_dropped(self):
        sol = complete_multipartite_min_time([0, 3, 0], _mk_speeds([1, 1]))
        # a single real part may split across both machines: 2 + 1 jobs
        assert sol.makespan == 2

    def test_single_part_uses_all_machines(self):
        sol = complete_multipartite_min_time([4], _mk_speeds([1, 1]))
        assert sol.makespan == 2
        assert sum(sol.part_counts) == 4

    def test_two_parts_two_unit_machines(self):
        sol = complete_multipartite_min_time([3, 2], _mk_speeds([1, 1]))
        # each part is pinned to its own machine
        assert sol.makespan == 3

    def test_speed_helps_bigger_part(self):
        sol = complete_multipartite_min_time([6, 2], _mk_speeds([3, 1]))
        # fast machine takes the big part: max(6/3, 2/1) = 2
        assert sol.makespan == 2

    def test_free_jobs_consume_capacity(self):
        no_free = complete_multipartite_min_time([2, 2], _mk_speeds([1, 1]))
        with_free = complete_multipartite_min_time(
            [2, 2], _mk_speeds([1, 1]), free_jobs=4
        )
        assert no_free.makespan == 2
        assert with_free.makespan == 4
        assert sum(with_free.free_counts) == 4

    def test_free_jobs_only(self):
        sol = complete_multipartite_min_time([], _mk_speeds([2, 1]), free_jobs=6)
        assert sol.makespan == 2  # capacities floor(2t) + floor(t) >= 6 at t=2
        assert sum(sol.free_counts) == 6

    def test_three_parts_three_machines(self):
        sol = complete_multipartite_min_time([5, 3, 1], _mk_speeds([5, 3, 1]))
        assert sol.makespan == 1

    def test_three_parts_uneven(self):
        # parts 4,4,4 on speeds 2,1,1: fast machine finishes its part in 2,
        # slow ones need 4
        sol = complete_multipartite_min_time([4, 4, 4], _mk_speeds([2, 1, 1]))
        assert sol.makespan == 4

    def test_part_can_be_split_between_machines(self):
        # one part of 10 jobs, two machines: split 5/5
        sol = complete_multipartite_min_time([10], _mk_speeds([1, 1]))
        assert sol.makespan == 5

    def test_two_parts_with_splitting(self):
        # part sizes 8 and 2 on three unit machines: 8 splits over two
        # machines (4 each), 2 on the third
        sol = complete_multipartite_min_time([8, 2], _mk_speeds([1, 1, 1]))
        assert sol.makespan == 4

    def test_fractional_speed(self):
        sol = complete_multipartite_min_time([1, 1], _mk_speeds(["1/2", "1/2"]))
        assert sol.makespan == 2  # each machine needs time 2 per unit job


class TestMinTimeValidation:
    def test_more_parts_than_machines(self):
        with pytest.raises(InfeasibleInstanceError):
            complete_multipartite_min_time([1, 1, 1], _mk_speeds([1, 1]))

    def test_negative_part(self):
        with pytest.raises(InvalidInstanceError):
            complete_multipartite_min_time([-1, 2], _mk_speeds([1, 1]))

    def test_negative_free(self):
        with pytest.raises(InvalidInstanceError):
            complete_multipartite_min_time([1], _mk_speeds([1]), free_jobs=-2)

    def test_no_machines_with_jobs(self):
        with pytest.raises(InvalidInstanceError):
            complete_multipartite_min_time([1], [])

    def test_no_machines_no_jobs(self):
        sol = complete_multipartite_min_time([], [])
        assert sol.makespan == 0


class TestPlanConsistency:
    def test_counts_respect_capacities(self):
        speeds = _mk_speeds([3, 2, 1])
        sol = complete_multipartite_min_time([7, 5], speeds, free_jobs=3)
        for i, s in enumerate(speeds):
            cap = (s * sol.makespan).__floor__()
            assert sol.part_counts[i] + sol.free_counts[i] <= cap

    def test_machines_serve_single_part(self):
        sol = complete_multipartite_min_time([6, 6], _mk_speeds([2, 2, 1]))
        for i, part in enumerate(sol.machine_part):
            if sol.part_counts[i] > 0:
                assert part is not None

    def test_all_jobs_placed(self):
        sol = complete_multipartite_min_time([9, 4, 2], _mk_speeds([4, 2, 1, 1]), 5)
        assert sum(sol.part_counts) == 15
        assert sum(sol.free_counts) == 5


class TestAgainstBruteForce:
    """The unary algorithm must equal the exhaustive optimum."""

    @pytest.mark.parametrize(
        "a,b,speeds",
        [
            (2, 2, [1, 1]),
            (3, 2, [2, 1]),
            (4, 1, [2, 1, 1]),
            (3, 3, [3, 2, 1]),
            (5, 2, ["5/2", 1]),
            (2, 2, [1, 1, 1, 1]),
        ],
    )
    def test_complete_bipartite_matches_brute_force(self, a, b, speeds):
        graph = generators.complete_bipartite(a, b)
        inst = unit_uniform_instance(graph, _mk_speeds(speeds))
        schedule = schedule_complete_bipartite_unit(inst)
        assert schedule.makespan == brute_force_makespan(inst)

    @pytest.mark.parametrize(
        "a,b,iso,speeds",
        [(2, 2, 2, [2, 1]), (1, 3, 1, [1, 1]), (2, 1, 3, [3, 1, 1])],
    )
    def test_with_isolated_matches_brute_force(self, a, b, iso, speeds):
        graph = generators.complete_bipartite(a, b).disjoint_union(
            BipartiteGraph(iso)
        )
        inst = unit_uniform_instance(graph, _mk_speeds(speeds))
        schedule = schedule_complete_bipartite_unit(inst)
        assert schedule.makespan == brute_force_makespan(inst)


class TestScheduleAdapter:
    def test_schedule_is_feasible(self):
        graph = generators.complete_bipartite(4, 3)
        inst = unit_uniform_instance(graph, _mk_speeds([3, 2, 1]))
        schedule = schedule_complete_bipartite_unit(inst)
        assert schedule.is_feasible()

    def test_rejects_non_unit_jobs(self):
        graph = generators.complete_bipartite(2, 2)
        inst = UniformInstance(graph, [2, 1, 1, 1], _mk_speeds([1, 1]))
        with pytest.raises(InvalidInstanceError):
            schedule_complete_bipartite_unit(inst)

    def test_rejects_general_bipartite(self):
        inst = unit_uniform_instance(generators.crown(3), _mk_speeds([1, 1]))
        with pytest.raises(InvalidInstanceError):
            schedule_complete_bipartite_unit(inst)

    def test_rejects_eligibility_masks(self):
        # the unmasked optimum at speeds (3, 1) puts job 3 on machine 0,
        # which its mask forbids: refused up front, like the k-part solver
        inst = UniformInstance(
            generators.complete_bipartite(2, 2),
            [1, 1, 1, 1],
            _mk_speeds([3, 1]),
            eligible=[None, None, None, [1]],
        )
        with pytest.raises(InvalidInstanceError, match="eligibility masks"):
            schedule_complete_bipartite_unit(inst)

    def test_edgeless_graph_schedules_everywhere(self):
        inst = unit_uniform_instance(generators.empty_graph(6), _mk_speeds([2, 1]))
        schedule = schedule_complete_bipartite_unit(inst)
        assert schedule.makespan == brute_force_makespan(inst)

    def test_single_edge(self):
        inst = unit_uniform_instance(BipartiteGraph(2, [(0, 1)]), _mk_speeds([1, 1]))
        schedule = schedule_complete_bipartite_unit(inst)
        assert schedule.makespan == 1


@settings(max_examples=50, deadline=None)
@given(
    a=st.integers(1, 3),
    b=st.integers(1, 3),
    iso=st.integers(0, 2),
    speed_ints=st.lists(st.integers(1, 4), min_size=2, max_size=3),
)
def test_property_exact_vs_brute_force(a, b, iso, speed_ints):
    """Random small instances: the unary algorithm equals brute force."""
    graph = generators.complete_bipartite(a, b)
    if iso:
        graph = graph.disjoint_union(BipartiteGraph(iso))
    speeds = sorted((F(s) for s in speed_ints), reverse=True)
    inst = unit_uniform_instance(graph, speeds)
    schedule = schedule_complete_bipartite_unit(inst)
    assert schedule.is_feasible()
    assert schedule.makespan == brute_force_makespan(inst)


@settings(max_examples=40, deadline=None)
@given(
    parts=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    speed_ints=st.lists(st.integers(1, 5), min_size=3, max_size=5),
    free=st.integers(0, 6),
)
def test_property_plan_is_internally_consistent(parts, speed_ints, free):
    """Plans always place every job within capacity at the claimed time."""
    speeds = [F(s) for s in speed_ints]
    sol = complete_multipartite_min_time(parts, speeds, free_jobs=free)
    assert sum(sol.part_counts) == sum(parts)
    assert sum(sol.free_counts) == free
    for i, s in enumerate(speeds):
        cap = (s * sol.makespan).__floor__()
        assert sol.part_counts[i] + sol.free_counts[i] <= cap
    # machines serving a part are consistent with the group labels
    covered = [0] * len(parts)
    for i, part in enumerate(sol.machine_part):
        if sol.part_counts[i]:
            covered[part] += sol.part_counts[i]
    assert covered == list(parts)


@settings(max_examples=30, deadline=None)
@given(
    parts=st.lists(st.integers(1, 8), min_size=2, max_size=2),
    speed_ints=st.lists(st.integers(1, 4), min_size=2, max_size=4),
)
def test_property_makespan_is_minimal_step(parts, speed_ints):
    """No feasible plan exists strictly below the returned makespan.

    Checked by re-running feasibility at the largest candidate time below
    the optimum (one capacity step down on the fastest machine).
    """
    speeds = [F(s) for s in speed_ints]
    sol = complete_multipartite_min_time(parts, speeds)
    smaller = sol.makespan * F(99, 100)
    caps = _capacities(speeds, smaller, sum(parts))
    assert _feasible_groups(caps, parts, sum(parts)) is None
