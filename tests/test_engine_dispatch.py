"""Tests for :mod:`repro.engine.dispatch` — ranked auto selection,
behaviour-identity with the pre-engine policy, and explain mode."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.engine import (
    ALGORITHMS,
    auto_choice,
    available_algorithms,
    explain_dispatch,
    solve,
)
from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.graphs import generators
from repro.random_graphs.gilbert import gnnp
from repro.scheduling.instance import (
    UniformInstance,
    UnrelatedInstance,
    identical_instance,
    unit_uniform_instance,
)

F = Fraction

#: sentinel for corpus entries where dispatch must raise
INFEASIBLE = "!infeasible"


def _corpus():
    """The frozen dispatch corpus (instances built deterministically)."""
    yield "Kab_unit_q3", unit_uniform_instance(
        generators.complete_bipartite(3, 2), [F(2), F(1), F(1)]
    )
    yield "Kab_unit_q1", unit_uniform_instance(
        generators.complete_bipartite(2, 2), [F(1)]
    )
    yield "crown_unit_q2", unit_uniform_instance(generators.crown(4), [F(3), F(1)])
    yield "empty_unit_q1", unit_uniform_instance(generators.empty_graph(5), [F(2)])
    yield "empty_unit_q3", unit_uniform_instance(
        generators.empty_graph(5), [F(2), F(1), F(1)]
    )
    yield "crown_unit_q3", unit_uniform_instance(
        generators.crown(3), [F(2), F(1), F(1)]
    )
    yield "path_unit_q2", unit_uniform_instance(generators.path_graph(6), [F(2), F(1)])
    yield "gnnp_unit_q3", unit_uniform_instance(
        gnnp(5, 0.3, seed=1), [F(3), F(2), F(1)]
    )
    yield "empty_ident_p3", identical_instance(
        generators.empty_graph(6), [5, 4, 3, 3, 2, 1], 3
    )
    yield "empty_q2", UniformInstance(
        generators.empty_graph(6), [4, 3, 3, 2, 2, 1], [F(2), F(1)]
    )
    yield "empty_q1_weighted", UniformInstance(
        generators.empty_graph(3), [4, 2, 1], [F(2)]
    )
    yield "crown_q2_weighted", UniformInstance(
        generators.crown(3), [3, 1, 4, 1, 5, 9], [F(2), F(1)]
    )
    yield "crown_q3_weighted", UniformInstance(
        generators.crown(4), [3, 1, 4, 1, 5, 9, 2, 6], [F(3), F(2), F(1)]
    )
    yield "matching_ident_m2", identical_instance(
        generators.matching_graph(3), [2, 1, 3, 1, 2, 2], 2
    )
    yield "matching_ident_m4", identical_instance(
        generators.matching_graph(3), [2, 1, 3, 1, 2, 2], 4
    )
    yield "star_q2_weighted", UniformInstance(
        generators.star(5), [2, 1, 1, 1, 1, 1], [F(3), F(1)]
    )
    yield "edge_r2", UnrelatedInstance(generators.matching_graph(1), [[2, 3], [5, 1]])
    yield "empty_r2", UnrelatedInstance(
        generators.empty_graph(4), [[2, 3, 1, 4], [5, 1, 2, 2]]
    )
    yield "empty_r3", UnrelatedInstance(
        generators.empty_graph(4), [[2, 3, 1, 4], [5, 1, 2, 2], [3, 3, 3, 3]]
    )
    yield "K22_r3", UnrelatedInstance(
        generators.complete_bipartite(2, 2), [[1, 1, 9, 9], [9, 9, 1, 1], [5, 5, 5, 5]]
    )
    yield "path_r4", UnrelatedInstance(
        generators.path_graph(5),
        [[1 + ((i * j) % 4) for j in range(5)] for i in range(4)],
    )
    yield "edge_r1", UnrelatedInstance(generators.matching_graph(1), [[1, 1]])
    yield "crown_unit_q1_infeasible", unit_uniform_instance(
        generators.crown(3), [F(1)]
    )


#: recorded from the pre-engine ``auto_choice`` (a 464-line monolith)
#: immediately before the engine refactor — the engine must reproduce
#: these answers exactly
FROZEN_CHOICES = {
    "Kab_unit_q3": "complete_multipartite",
    "Kab_unit_q1": "complete_multipartite",
    "crown_unit_q2": "q2_unit_exact",
    "empty_unit_q1": "complete_multipartite",
    "empty_unit_q3": "complete_multipartite",
    "crown_unit_q3": "sqrt_approx",
    "path_unit_q2": "q2_unit_exact",
    "gnnp_unit_q3": "sqrt_approx",
    "empty_ident_p3": "dual_approx",
    "empty_q2": "q2_fptas",
    "empty_q1_weighted": "dual_approx",
    "crown_q2_weighted": "q2_fptas",
    "crown_q3_weighted": "sqrt_approx",
    "matching_ident_m2": "q2_fptas",
    "matching_ident_m4": "sqrt_approx",
    "star_q2_weighted": "q2_fptas",
    "edge_r2": "r2_fptas",
    "empty_r2": "r2_fptas",
    "empty_r3": "lst",
    "K22_r3": "r_color_split",
    "path_r4": "r_color_split",
    "edge_r1": INFEASIBLE,
    "crown_unit_q1_infeasible": INFEASIBLE,
}

#: applicable-algorithm sets recorded from the pre-engine registry on a
#: sample of the corpus (capability parity, not just auto parity).  The
#: conflict-graph generalization added two registry members that apply on
#: bipartite instances too — ``complete_multipartite_min_time`` (K_{a,b}
#: is complete multipartite; unit uniform only) and
#: ``conflict_color_split`` (any graph, m >= 2) — so those names appear
#: here; every pre-refactor name is unchanged, and FROZEN_CHOICES above
#: pins that the *auto policy* is untouched
FROZEN_APPLICABILITY = {
    "Kab_unit_q3": {
        "complete_multipartite", "complete_multipartite_min_time", "lpt",
        "sqrt_approx", "random_graph", "random_graph_balanced",
        "two_machine_split", "conflict_color_split", "greedy", "brute_force",
    },
    "empty_unit_q1": {
        "complete_multipartite", "complete_multipartite_min_time",
        "dual_approx", "lpt", "random_graph", "random_graph_balanced",
        "greedy", "brute_force",
    },
    "empty_ident_p3": {
        "dual_approx", "lpt", "sqrt_approx", "bjw", "two_machine_split",
        "conflict_color_split", "greedy", "brute_force",
    },
    "matching_ident_m4": {
        "lpt", "sqrt_approx", "bjw", "two_machine_split",
        "conflict_color_split", "greedy", "brute_force",
    },
    "edge_r2": {
        "r2_two_approx", "r2_fptas", "lst", "r_color_split",
        "conflict_color_split", "greedy", "brute_force",
    },
    "empty_r3": {
        "lst", "r_color_split", "conflict_color_split", "greedy",
        "brute_force",
    },
}


def _choice_or_sentinel(instance) -> str:
    try:
        return auto_choice(instance)
    except InfeasibleInstanceError:
        return INFEASIBLE


class TestFrozenCorpus:
    def test_corpus_covers_every_expectation(self):
        assert {name for name, _ in _corpus()} == set(FROZEN_CHOICES)

    @pytest.mark.parametrize("name,instance", list(_corpus()))
    def test_engine_matches_pre_refactor_policy(self, name, instance):
        assert _choice_or_sentinel(instance) == FROZEN_CHOICES[name]

    @pytest.mark.parametrize("name,instance", list(_corpus()))
    def test_kernel_tiers_give_identical_answers(self, name, instance, monkeypatch):
        """``solve`` answers the same with every hot loop on its integer
        reference (numpy cutoffs at ``sys.maxsize``) and with every loop
        on numpy wherever its operands fit (cutoffs at 1)."""
        answers = []
        for cutoff in (sys.maxsize, 1):
            for knob in (
                "GREEDY_NUMPY_MIN_JOBS",
                "COVER_NUMPY_MIN_MACHINES",
                "R2_DP_NUMPY_MIN_STATES",
            ):
                monkeypatch.setattr(fastpath, knob, cutoff)
            try:
                schedule = solve(instance)
            except InfeasibleInstanceError:
                answers.append(INFEASIBLE)
            else:
                answers.append((list(schedule.assignment), schedule.makespan))
        assert answers[0] == answers[1]

    def test_applicability_sets_frozen(self):
        instances = dict(_corpus())
        for name, expected in FROZEN_APPLICABILITY.items():
            got = {s.name for s in available_algorithms(instances[name])}
            assert got == expected, name


def _instances():
    """Hypothesis strategy: structurally diverse scheduling instances."""
    graphs = st.sampled_from(["empty", "matching", "path", "crown", "kab", "star"])

    @st.composite
    def build(draw):
        family = draw(graphs)
        size = draw(st.integers(min_value=1, max_value=5))
        if family == "empty":
            graph = generators.empty_graph(size + 1)
        elif family == "matching":
            graph = generators.matching_graph(size)
        elif family == "path":
            graph = generators.path_graph(size + 1)
        elif family == "crown":
            graph = generators.crown(max(2, size))
        elif family == "star":
            graph = generators.star(size)
        else:
            graph = generators.complete_bipartite(size, draw(st.integers(1, 4)))
        m = draw(st.integers(min_value=1, max_value=4))
        kind = draw(st.sampled_from(["uniform", "unrelated"]))
        if kind == "uniform":
            unit = draw(st.booleans())
            identical = draw(st.booleans())
            if identical:
                speeds = [F(2)] * m
            else:
                speeds = sorted(
                    (
                        F(draw(st.integers(1, 5)), draw(st.integers(1, 2)))
                        for _ in range(m)
                    ),
                    reverse=True,
                )
            if unit:
                p = [1] * graph.n
            else:
                p = [draw(st.integers(1, 9)) for _ in range(graph.n)]
            return UniformInstance(graph, p, speeds)
        times = [
            [draw(st.integers(1, 9)) for _ in range(graph.n)] for _ in range(m)
        ]
        return UnrelatedInstance(graph, times)

    return build()


class TestDispatchProperties:
    @settings(max_examples=60, deadline=None)
    @given(instance=_instances())
    def test_auto_choice_always_applicable(self, instance):
        """Whatever auto picks must satisfy its own declared capability,
        and infeasibility is raised exactly on edged one-machine
        instances (tie-breaking/fallback ordering can never select an
        inapplicable method)."""
        try:
            name = auto_choice(instance)
        except InfeasibleInstanceError:
            assert instance.m == 1 and instance.graph.edge_count > 0
            return
        spec = ALGORITHMS[name]
        assert spec.applies(instance)
        assert spec.auto_rank is not None

    @settings(max_examples=20, deadline=None)
    @given(instance=_instances())
    def test_chosen_is_lowest_eligible_rank(self, instance):
        try:
            name = auto_choice(instance)
        except InfeasibleInstanceError:
            return
        chosen_rank = ALGORITHMS[name].auto_rank
        for spec in ALGORITHMS.values():
            if spec.auto_rank is None or spec.auto_rank >= chosen_rank:
                continue
            eligible = spec.applies(instance) and (
                spec.auto_when is None or spec.auto_when.check(instance)
            )
            assert not eligible, (name, spec.name)


class TestExplain:
    def test_chosen_entry_marked(self):
        inst = unit_uniform_instance(generators.crown(4), [F(3), F(1)])
        report = explain_dispatch(inst)
        assert report.chosen == "q2_unit_exact"
        chosen = [e for e in report.entries if e.chosen]
        assert [e.name for e in chosen] == ["q2_unit_exact"]
        assert "selected" in report.why_chosen()
        assert len(report.entries) == len(ALGORITHMS)

    def test_rejections_carry_reasons(self):
        inst = unit_uniform_instance(generators.crown(4), [F(3), F(1)])
        rejected = explain_dispatch(inst).why_rejected()
        assert "requires unrelated machines" in rejected["r2_fptas"]
        assert "loses to" in rejected["q2_fptas"]
        assert "edgeless" in rejected["lpt"]  # auto_when constraint

    def test_infeasible_instance_reports_error(self):
        inst = unit_uniform_instance(generators.crown(3), [F(1)])
        report = explain_dispatch(inst)
        assert report.chosen is None
        assert "two machines" in report.error
        assert "dispatch failed" in report.table()

    def test_named_algorithm_explain(self):
        inst = unit_uniform_instance(generators.crown(4), [F(3), F(1)])
        report = explain_dispatch(inst, algorithm="sqrt_approx")
        assert report.chosen == "sqrt_approx"
        assert "requested" in report.why_chosen()
        report = explain_dispatch(inst, algorithm="r2_fptas")
        assert report.chosen is None and "does not apply" in report.error
        report = explain_dispatch(inst, algorithm="nonsense")
        assert report.chosen is None and "unknown algorithm" in report.error

    def test_report_round_trips_to_json(self):
        import json

        inst = unit_uniform_instance(generators.crown(4), [F(3), F(1)])
        data = json.loads(json.dumps(explain_dispatch(inst).to_dict()))
        assert data["chosen"] == "q2_unit_exact"
        assert len(data["entries"]) == len(ALGORITHMS)


class TestSolveErrors:
    def test_unknown_algorithm_rejected(self):
        inst = unit_uniform_instance(generators.empty_graph(2), [F(1)])
        with pytest.raises(InvalidInstanceError, match="unknown algorithm"):
            solve(inst, algorithm="quantum_annealing")

    def test_inapplicable_algorithm_rejected(self):
        inst = unit_uniform_instance(generators.crown(3), [F(2), F(1)])
        with pytest.raises(InvalidInstanceError, match="does not apply"):
            solve(inst, algorithm="r2_fptas")

    def test_unknown_instance_type_rejected(self):
        with pytest.raises(InvalidInstanceError, match="unknown instance type"):
            auto_choice(object())
