"""Tests for :mod:`repro.engine.portfolio` — k-way algorithm racing."""

from fractions import Fraction

import pytest

from repro.engine import (
    auto_choice,
    portfolio_candidates,
    portfolio_solve,
    solve,
)
from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.graphs import generators
from repro.random_graphs.gilbert import gnnp
from repro.scheduling.instance import (
    UnrelatedInstance,
    unit_uniform_instance,
)

F = Fraction


def _instances():
    yield unit_uniform_instance(generators.crown(4), [F(3), F(1)])
    yield unit_uniform_instance(gnnp(5, 0.2, seed=3), [F(3), F(2), F(1)])
    yield UnrelatedInstance(generators.matching_graph(2), [[2, 3, 1, 4], [5, 1, 2, 2]])
    yield UnrelatedInstance(
        generators.path_graph(5),
        [[1 + ((i * j) % 4) for j in range(5)] for i in range(3)],
    )


class TestCandidates:
    def test_auto_choice_leads(self):
        for inst in _instances():
            names = portfolio_candidates(inst, k=3)
            assert names[0] == auto_choice(inst)
            assert 1 <= len(names) <= 3
            assert len(set(names)) == len(names)

    def test_no_exponential_and_no_blind_on_edged(self):
        inst = unit_uniform_instance(generators.crown(4), [F(3), F(1)])
        names = portfolio_candidates(inst, k=100)
        assert "brute_force" not in names
        assert "lpt" not in names  # graph-blind, graph has edges

    def test_blind_allowed_on_edgeless(self):
        inst = UnrelatedInstance(
            generators.empty_graph(4), [[2, 3, 1, 4], [5, 1, 2, 2]]
        )
        names = portfolio_candidates(inst, k=100)
        assert "lst" in names

    def test_invalid_k_rejected(self):
        inst = unit_uniform_instance(generators.crown(4), [F(3), F(1)])
        with pytest.raises(InvalidInstanceError, match="portfolio size"):
            portfolio_candidates(inst, k=0)

    def test_infeasible_instance_propagates(self):
        inst = unit_uniform_instance(generators.crown(3), [F(1)])
        with pytest.raises(InfeasibleInstanceError):
            portfolio_candidates(inst)


class TestRace:
    def test_never_worse_than_auto(self):
        for inst in _instances():
            auto_cmax = solve(inst).makespan
            result = portfolio_solve(inst, k=4)
            assert result.makespan <= auto_cmax
            assert result.schedule.is_feasible()
            assert result.schedule.makespan == result.makespan

    def test_entries_cover_candidates(self):
        inst = unit_uniform_instance(gnnp(5, 0.2, seed=3), [F(3), F(2), F(1)])
        result = portfolio_solve(inst, k=3, early_cutoff=False)
        assert len(result.entries) == len(portfolio_candidates(inst, k=3))
        assert not any(e.skipped for e in result.entries)
        assert result.chosen in {e.algorithm for e in result.entries}

    def test_early_cutoff_at_lower_bound(self):
        # unit jobs on an empty graph with identical speeds: the first
        # candidate (complete_multipartite, exact) hits the capacity
        # lower bound, so the rest of the race must be skipped
        inst = unit_uniform_instance(
            generators.empty_graph(6), [F(1), F(1), F(1)]
        )
        result = portfolio_solve(inst, k=3)
        assert result.lower_bound is not None
        assert result.makespan <= result.lower_bound
        assert result.cutoff
        assert any(e.skipped for e in result.entries)
        # without the cutoff every candidate runs
        full = portfolio_solve(inst, k=3, early_cutoff=False)
        assert not full.cutoff
        assert not any(e.skipped for e in full.entries)
        assert full.makespan == result.makespan

    def test_crashing_plugin_does_not_abort_the_race(self):
        """A candidate raising a non-ReproError (plugin bug) becomes an
        errored entry; the other candidates' schedules survive."""
        from repro.engine import (
            AlgorithmSpec,
            Capability,
            register_algorithm,
            unregister_algorithm,
        )

        def boom(instance):
            raise ValueError("plugin bug")

        register_algorithm(
            AlgorithmSpec(
                name="boom_plugin",
                guarantee="none",
                anchor="test fixture",
                run=boom,
                capability=Capability(machine_kind="uniform"),
                auto_rank=15,  # raced right after the auto choice
            )
        )
        try:
            inst = unit_uniform_instance(generators.crown(4), [F(3), F(1)])
            result = portfolio_solve(inst, k=4, early_cutoff=False)
            entry = {e.algorithm: e for e in result.entries}["boom_plugin"]
            assert entry.error == "ValueError: plugin bug"
            assert result.schedule.is_feasible()
        finally:
            unregister_algorithm("boom_plugin")

    def test_table_renders(self):
        inst = unit_uniform_instance(generators.crown(4), [F(3), F(1)])
        text = portfolio_solve(inst, k=3).table()
        assert "portfolio" in text and "Cmax" in text

