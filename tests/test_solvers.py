"""Tests for the algorithm registry and auto dispatch of :mod:`repro.engine`."""

from fractions import Fraction

import pytest

from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.graphs import generators
from repro.graphs.bipartite import BipartiteGraph
from repro.scheduling.brute_force import brute_force_makespan
from repro.scheduling.instance import (
    UniformInstance,
    UnrelatedInstance,
    identical_instance,
    unit_uniform_instance,
)
from repro.engine import ALGORITHMS, available_algorithms, solve

F = Fraction


class TestRegistry:
    def test_every_spec_has_fields(self):
        for spec in ALGORITHMS.values():
            assert spec.name and spec.guarantee and spec.anchor
            assert callable(spec.applies) and callable(spec.run)

    def test_paper_algorithms_registered(self):
        for name in (
            "sqrt_approx",
            "q2_unit_exact",
            "random_graph",
            "r2_two_approx",
            "r2_fptas",
            "complete_multipartite",
            "brute_force",
        ):
            assert name in ALGORITHMS

    def test_available_without_instance_lists_all(self):
        assert len(available_algorithms()) == len(ALGORITHMS)

    def test_available_filters_by_instance(self):
        inst = unit_uniform_instance(generators.crown(3), [F(2), F(1)])
        names = {s.name for s in available_algorithms(inst)}
        assert "sqrt_approx" in names
        assert "r2_fptas" not in names  # unrelated-only

    def test_unknown_algorithm_rejected(self):
        inst = unit_uniform_instance(generators.empty_graph(2), [F(1)])
        with pytest.raises(InvalidInstanceError, match="unknown algorithm"):
            solve(inst, algorithm="quantum_annealing")

    def test_inapplicable_algorithm_rejected(self):
        inst = unit_uniform_instance(generators.crown(3), [F(2), F(1)])
        with pytest.raises(InvalidInstanceError, match="does not apply"):
            solve(inst, algorithm="r2_fptas")


class TestAutoDispatchUniform:
    def test_complete_bipartite_unit_is_exact(self):
        inst = unit_uniform_instance(
            generators.complete_bipartite(3, 2), [F(2), F(1), F(1)]
        )
        schedule = solve(inst)
        assert schedule.makespan == brute_force_makespan(inst)

    def test_q2_unit_is_exact(self):
        inst = unit_uniform_instance(generators.crown(4), [F(3), F(1)])
        schedule = solve(inst)
        assert schedule.makespan == brute_force_makespan(inst)

    def test_empty_identical_uses_ptas(self):
        inst = identical_instance(generators.empty_graph(8), [5, 4, 3, 3, 2, 2, 1, 1], 3)
        schedule = solve(inst)
        opt = brute_force_makespan(inst)
        assert schedule.makespan <= (1 + F(1, 3)) * opt

    def test_empty_uniform_uses_lpt(self):
        inst = UniformInstance(
            generators.empty_graph(6), [4, 3, 3, 2, 2, 1], [F(2), F(1)]
        )
        schedule = solve(inst)
        assert schedule.is_feasible()
        assert schedule.makespan <= 2 * brute_force_makespan(inst)

    def test_general_bipartite_uses_sqrt_approx(self):
        inst = UniformInstance(
            generators.crown(4), [3, 1, 4, 1, 5, 9, 2, 6], [F(3), F(2), F(1)]
        )
        schedule = solve(inst)
        assert schedule.is_feasible()

    def test_one_machine_with_conflicts_raises(self):
        inst = unit_uniform_instance(BipartiteGraph(2, [(0, 1)]), [F(1)])
        with pytest.raises(InfeasibleInstanceError):
            solve(inst)

    def test_one_machine_general_graph_raises(self):
        # a crown is not complete bipartite, so the dispatcher itself
        # reports infeasibility (not the multipartite solver)
        inst = unit_uniform_instance(generators.crown(3), [F(1)])
        with pytest.raises(InfeasibleInstanceError):
            solve(inst)


class TestAutoDispatchUnrelated:
    def test_r2_uses_fptas(self):
        graph = BipartiteGraph(3, [(0, 1)])
        inst = UnrelatedInstance(graph, [[2, 3, 4], [5, 1, 2]])
        schedule = solve(inst)
        opt = brute_force_makespan(inst)
        assert schedule.makespan <= (1 + F(1, 10)) * opt

    def test_empty_r3_uses_lst(self):
        graph = generators.empty_graph(5)
        inst = UnrelatedInstance(
            graph, [[3, 5, 2, 6, 4], [4, 2, 5, 3, 6], [6, 4, 3, 2, 5]]
        )
        schedule = solve(inst)
        assert schedule.is_feasible()  # empty graph: LST result is feasible
        assert schedule.makespan <= 2 * brute_force_makespan(inst)

    def test_r3_with_conflicts_uses_color_split(self):
        graph = generators.complete_bipartite(2, 2)
        inst = UnrelatedInstance(
            graph, [[1, 1, 9, 9], [9, 9, 1, 1], [5, 5, 5, 5]]
        )
        schedule = solve(inst)
        assert schedule.is_feasible()

    def test_r1_with_conflicts_raises(self):
        graph = BipartiteGraph(2, [(0, 1)])
        inst = UnrelatedInstance(graph, [[1, 1]])
        with pytest.raises(InfeasibleInstanceError):
            solve(inst)


class TestExplicitChoices:
    def test_brute_force_by_name(self):
        inst = unit_uniform_instance(generators.crown(3), [F(2), F(1)])
        schedule = solve(inst, algorithm="brute_force")
        assert schedule.makespan == brute_force_makespan(inst)

    def test_bjw_by_name(self):
        inst = identical_instance(generators.crown(3), [1] * 6, 3)
        schedule = solve(inst, algorithm="bjw")
        assert schedule.is_feasible()

    def test_greedy_by_name(self):
        inst = unit_uniform_instance(generators.matching_graph(3), [F(2), F(1)])
        schedule = solve(inst, algorithm="greedy")
        assert schedule.is_feasible()

    def test_greedy_failure_raises(self):
        # K_{2,2} on one machine: greedy cannot place conflicting jobs
        inst = unit_uniform_instance(generators.complete_bipartite(2, 2), [F(1)])
        with pytest.raises(InvalidInstanceError, match="greedy"):
            solve(inst, algorithm="greedy")

    def test_random_graph_algorithm_by_name(self):
        from repro.random_graphs.gilbert import gnnp

        graph = gnnp(10, 0.1, seed=3)
        inst = unit_uniform_instance(graph, [F(3), F(2), F(1)])
        schedule = solve(inst, algorithm="random_graph")
        assert schedule.is_feasible()

    def test_every_applicable_algorithm_runs(self):
        """Smoke: run each applicable method on a benign instance."""
        inst = unit_uniform_instance(
            generators.matching_graph(3), [F(2), F(1), F(1)]
        )
        for spec in available_algorithms(inst):
            if spec.name == "lpt":
                continue  # graph-blind: returns check=False schedules
            schedule = solve(inst, algorithm=spec.name)
            assert schedule.makespan > 0

    def test_two_machine_split_requires_two_machines(self):
        """Regression: the *two-machine* split must not claim m = 1
        edgeless instances — its name and Algorithm-1-fallback shape
        promise two machines."""
        one_machine = UniformInstance(generators.empty_graph(3), [1, 2, 3], [F(1)])
        spec = ALGORITHMS["two_machine_split"]
        assert not spec.applies(one_machine)
        with pytest.raises(InvalidInstanceError, match="two_machine_split"):
            solve(one_machine, algorithm="two_machine_split")
        two_machines = UniformInstance(
            generators.empty_graph(3), [1, 2, 3], [F(2), F(1)]
        )
        assert spec.applies(two_machines)
        assert solve(two_machines, algorithm="two_machine_split").is_feasible()
