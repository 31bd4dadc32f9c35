"""Tests for the Section 6 balanced variant of Algorithm 2."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.random_graph_scheduler import (
    random_graph_schedule,
    random_graph_schedule_balanced,
)
from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.graphs import generators
from repro.graphs.bipartite import BipartiteGraph
from repro.random_graphs.gilbert import gnnp
from repro.scheduling.bounds import min_cover_time
from repro.scheduling.brute_force import brute_force_makespan
from repro.scheduling.instance import UniformInstance, unit_uniform_instance

F = Fraction


class TestBalancedVariant:
    def test_zero_jobs(self):
        inst = unit_uniform_instance(generators.empty_graph(0), [F(1), F(1)])
        assert random_graph_schedule_balanced(inst).makespan == 0

    def test_single_machine_edgeless(self):
        inst = unit_uniform_instance(generators.empty_graph(5), [F(2)])
        assert random_graph_schedule_balanced(inst).makespan == F(5, 2)

    def test_single_machine_with_edge_raises(self):
        inst = unit_uniform_instance(BipartiteGraph(2, [(0, 1)]), [F(1)])
        with pytest.raises(InfeasibleInstanceError):
            random_graph_schedule_balanced(inst)

    def test_non_unit_jobs_rejected(self):
        inst = UniformInstance(generators.empty_graph(2), [2, 1], [F(1), F(1)])
        with pytest.raises(InvalidInstanceError):
            random_graph_schedule_balanced(inst)

    def test_edgeless_graph_is_balanced_optimally(self):
        """All jobs isolated: the variant degrades to list scheduling,
        which is optimal for unit jobs on these speeds."""
        inst = unit_uniform_instance(generators.empty_graph(12), [F(3), F(2), F(1)])
        schedule = random_graph_schedule_balanced(inst)
        assert schedule.makespan == brute_force_makespan(inst)

    def test_plain_algorithm2_wastes_sparse_capacity(self):
        """The documented failure mode of plain Algorithm 2: with one
        conflict edge and many isolated jobs, M_2 idles; balancing fixes it."""
        graph = BipartiteGraph(20, [(0, 10)])
        inst = unit_uniform_instance(graph, [F(1), F(1)])
        plain = random_graph_schedule(inst)
        balanced = random_graph_schedule_balanced(inst)
        assert balanced.makespan <= plain.makespan
        assert balanced.makespan == 10  # perfect split of 20 unit jobs

    def test_feasible_on_random_graphs(self):
        for seed in range(6):
            graph = gnnp(15, 1.0 / 15, seed=seed)
            inst = unit_uniform_instance(graph, [F(3), F(2), F(1), F(1)])
            schedule = random_graph_schedule_balanced(inst)
            assert schedule.is_feasible()

    def test_never_worse_than_plain_on_sparse(self):
        worse = 0
        for seed in range(10):
            graph = gnnp(30, 0.2 / 30, seed=100 + seed)
            inst = unit_uniform_instance(graph, [F(4), F(2), F(1)])
            plain = random_graph_schedule(inst)
            balanced = random_graph_schedule_balanced(inst)
            if balanced.makespan > plain.makespan:
                worse += 1
        assert worse == 0


class TestSharedEntryChecks:
    """The balanced variant answers or refuses what Algorithm 2 settles
    before its step 1 exactly as plain Algorithm 2 does."""

    @pytest.mark.parametrize(
        "inst",
        [
            unit_uniform_instance(generators.empty_graph(0), [F(2), F(1)]),
            unit_uniform_instance(generators.empty_graph(5), [F(3)]),
        ],
        ids=["no-jobs", "one-machine"],
    )
    def test_base_cases_match_plain_algorithm2(self, inst):
        plain = random_graph_schedule(inst)
        balanced = random_graph_schedule_balanced(inst)
        assert balanced.assignment == plain.assignment

    @pytest.mark.parametrize(
        "inst, error",
        [
            (
                UniformInstance(BipartiteGraph(3, [(0, 1)]), [1, 2, 1], [F(2), F(1)]),
                InvalidInstanceError,
            ),
            (
                unit_uniform_instance(BipartiteGraph(3, [(0, 1)]), [F(1)]),
                InfeasibleInstanceError,
            ),
        ],
        ids=["non-unit-jobs", "one-machine-with-edge"],
    )
    def test_refusals_match_plain_algorithm2(self, inst, error):
        with pytest.raises(error) as plain:
            random_graph_schedule(inst)
        with pytest.raises(error) as balanced:
            random_graph_schedule_balanced(inst)
        assert str(balanced.value) == str(plain.value)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 20),
    a=st.floats(0.0, 3.0),
    seed=st.integers(0, 3000),
    m=st.integers(2, 4),
)
def test_property_balanced_is_feasible_and_bounded(n, a, seed, m):
    graph = gnnp(n, min(1.0, a / n), seed=seed)
    speeds = [F(m - i) for i in range(m)]
    inst = unit_uniform_instance(graph, speeds)
    schedule = random_graph_schedule_balanced(inst)
    assert schedule.is_feasible()
    lower = min_cover_time(inst.speeds, inst.n)
    # sanity: never below the capacity bound, never absurdly above it
    assert schedule.makespan >= lower
    assert schedule.makespan <= inst.n  # one unit job per time step worst case
