"""Tests for :mod:`repro.engine.dispatch` — ranked auto selection,
behaviour-identity with the pre-engine policy, and explain mode."""

import hashlib
import json
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


#: sha256 of ``json.dumps(explain_dispatch(instance).to_dict())`` per
#: corpus instance, recorded while a spec could still pass its own
#: predicate closure beside its capability.  Serve replies with
#: ``"explain": true`` embed exactly this dict, so the pin also guards
#: their bytes: every reason string, rank and verdict must stay as it was
FROZEN_EXPLAIN_SHA256 = {
    "Kab_unit_q3": "c785a4e348e6b89d1fb449cea671e0b0db3c779b9ac7d8655070aed82098d28f",
    "Kab_unit_q1": "f6f1cac5fa8439ca9872880f2867ef83da1754dc0b3b17c0a137ab3f88e1b573",
    "crown_unit_q2": "93a4eba45cb94342c292129fa29d8475f113bde1683b987f880c06c90d576484",
    "empty_unit_q1": "1419f87f174b568333d1b28525c1956aa294119d1719803e692eff8d15a553c0",
    "empty_unit_q3": "5a9fbeeec7ff7a8e45cea75068559e713e315f2eddc821a28dea3fd0e831bd34",
    "crown_unit_q3": "102a90b36ac320bcf277b894fbc56e427d2d67889b7e675abc8606ce5ffcadac",
    "path_unit_q2": "2d70001a4d857ccb7e9a7046f79ef24f02c715b0f86d9718d3bc7bb437f4b1ce",
    "gnnp_unit_q3": "102a90b36ac320bcf277b894fbc56e427d2d67889b7e675abc8606ce5ffcadac",
    "empty_ident_p3": "a4994c1b72da01947ba2e47b3f702b0dd10631a6f5d65bb16679c613c5749795",
    "empty_q2": "aa40ea21a2e7625e20dcdce3dfe6c8ece61a43076b97f494acb33e1f67a1a5e7",
    "empty_q1_weighted": "264ca33a31c77de2b3335c4aacfb538bcb542b29f902f23740923085ac13346a",
    "crown_q2_weighted": "f4881944aa7fcf1e8b0d5ebd50a6bcb8c5d93b7ab0e5e14f1c3e76928af40875",
    "crown_q3_weighted": "8a9f16f93179300450e0012c8967375eec60329d5700c3b8305fb36bfdf9ac65",
    "matching_ident_m2": "908584875d5c911f48574b18accceb2dc61385c62ef4ec36e24de6f9880c4edd",
    "matching_ident_m4": "62d1a240faf57a6568d638344169a23c7bf7bb8d6ec2c30a54cb9175fcdbe76b",
    "star_q2_weighted": "965196fad27d2d7ada4a2573c6af8d442701c887ae22ed21d1c86330e1760f2b",
    "edge_r2": "2e599b732de81d90ec0b5f0553ad082aada58e409a0431d27b5472c06d278fe4",
    "empty_r2": "baaff0381a8dc460fa2e62cf3853e59b2c794d1ca9e18e1d218cf556ca46df54",
    "empty_r3": "2bbf7cd9316548ca2106c15cf939e4d082de1c23e39310fb1ccd3b6d0a741bef",
    "K22_r3": "7adfee5277c7a962b7fd19dee5c5d42c2ee60e737d0c843cff385f7218b2209f",
    "path_r4": "6530c9ec745a6e15c70b7e53bccafa28abf6c5211ecd1735e236aa6f14b52f91",
    "edge_r1": "90752b6e069b8bee12628caaa3e1eed3cf2cf41ba8b89852b8b74d4c6d82393f",
    "crown_unit_q1_infeasible": "9a5f11a4399da944b0457c3bb192aa53dd012969fb8be8eae29a6cb495338ccc",
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

    @pytest.mark.parametrize("name,instance", list(_corpus()))
    def test_explain_report_bytes_frozen(self, name, instance):
        text = json.dumps(explain_dispatch(instance).to_dict())
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == FROZEN_EXPLAIN_SHA256[name]

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
