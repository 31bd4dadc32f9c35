"""Tests for :mod:`repro.workloads` — scenario generation models."""

from fractions import Fraction

import pytest

from repro.exceptions import InvalidInstanceError
from repro.graphs import generators
from repro.machines.profiles import geometric_speeds
from repro.scheduling.instance import UniformInstance, UnrelatedInstance
from repro.engine import solve
from repro.workloads import (
    UNRELATED_MODELS,
    build_machines_instance,
    build_unrelated_instance,
    correlated,
    hardness_q,
    hardness_r,
    parse_jobs,
    parse_speeds,
    restricted_assignment,
    two_value,
    uniform_pij,
)

from tests.conftest import grid_rationals

GRAPH = generators.crown(4)  # 8 vertices, 12 edges


class TestUnrelatedModels:
    @pytest.mark.parametrize("model", sorted(set(UNRELATED_MODELS) - {"hardness_r"}))
    def test_shape_and_positivity(self, model):
        inst = build_unrelated_instance(GRAPH, model, 3, seed=7)
        assert isinstance(inst, UnrelatedInstance)
        assert inst.m == 3 and inst.n == GRAPH.n
        assert all(t is not None and t > 0 for row in inst.grid()[1] for t in row)

    @pytest.mark.parametrize("model", sorted(UNRELATED_MODELS))
    def test_deterministic_under_seed(self, model):
        m = 3  # hardness_r needs m >= 3
        a = build_unrelated_instance(GRAPH, model, m, seed=11)
        b = build_unrelated_instance(GRAPH, model, m, seed=11)
        c = build_unrelated_instance(GRAPH, model, m, seed=12)
        assert a.grid() == b.grid()
        assert a.grid() != c.grid()  # the families are genuinely random

    def test_uniform_pij_respects_range(self):
        inst = uniform_pij(GRAPH, 2, lo=5, hi=9, seed=0)
        assert all(5 <= t <= 9 for row in grid_rationals(inst) for t in row)
        with pytest.raises(InvalidInstanceError):
            uniform_pij(GRAPH, 2, lo=9, hi=5)

    def test_correlated_structure(self):
        p = [3] * GRAPH.n
        inst = correlated(GRAPH, 3, p=p, machine_lo=2, machine_hi=4, noise=0, seed=1)
        # noise = 0: each row is a constant multiple a_i * p_j of the base
        for row in grid_rationals(inst):
            assert len({t for t in row}) == 1
            assert row[0] % 3 == 0 and 6 <= row[0] <= 12
        with pytest.raises(InvalidInstanceError):
            correlated(GRAPH, 2, noise=-1)

    def test_restricted_assignment_values_and_coverage(self):
        p = list(range(1, GRAPH.n + 1))
        inst = restricted_assignment(GRAPH, 3, p=p, allow_probability=0.3, seed=5)
        sentinel = 3 * sum(p) + 1
        for j in range(GRAPH.n):
            column = [grid_rationals(inst)[i][j] for i in range(3)]
            assert all(t in (Fraction(p[j]), Fraction(sentinel)) for t in column)
            # every job is eligible (non-sentinel) somewhere
            assert any(t == Fraction(p[j]) for t in column)

    def test_restricted_assignment_rejects_tiny_sentinel(self):
        with pytest.raises(InvalidInstanceError):
            restricted_assignment(GRAPH, 2, p=[9] * GRAPH.n, sentinel=4, seed=0)

    def test_two_value_support(self):
        inst = two_value(GRAPH, 2, low=2, high=7, high_probability=0.5, seed=3)
        values = {t for row in grid_rationals(inst) for t in row}
        assert values <= {Fraction(2), Fraction(7)}
        with pytest.raises(InvalidInstanceError):
            two_value(GRAPH, 2, low=5, high=5)

    def test_unknown_model_and_bad_params(self):
        with pytest.raises(InvalidInstanceError, match="unknown unrelated model"):
            build_unrelated_instance(GRAPH, "nope", 2)
        with pytest.raises(InvalidInstanceError, match="bad parameters"):
            build_unrelated_instance(GRAPH, "two_value", 2, bogus=1)


class TestAdversarialModels:
    def test_hardness_r_matrix(self):
        inst = hardness_r(GRAPH, d=50, m=4, seed=2)
        assert isinstance(inst, UnrelatedInstance)
        assert inst.m == 4 and inst.n == GRAPH.n
        values = {t for row in grid_rationals(inst) for t in row}
        assert values == {Fraction(1), Fraction(50)}
        assert all(t == Fraction(50) for t in grid_rationals(inst)[3])  # machines 4.. pay d
        # the instance is genuinely schedulable by the registered fallback
        assert solve(inst, algorithm="r_color_split").is_feasible()

    def test_hardness_r_default_gap_scales_with_n(self):
        inst = hardness_r(GRAPH, seed=2)
        assert Fraction(GRAPH.n * GRAPH.n) in {t for row in grid_rationals(inst) for t in row}

    def test_hardness_q_geometry(self):
        inst = hardness_q(GRAPH, k=2, m=3, seed=4)
        assert isinstance(inst, UniformInstance)
        assert inst.has_unit_jobs
        assert inst.m == 3
        # Theorem 8 speeds: 49k^2, 5k, 1
        assert inst.speeds[:3] == (Fraction(196), Fraction(10), Fraction(1))
        assert inst.n > GRAPH.n  # gadget vertices were attached

    def test_hardness_q_deterministic(self):
        a = hardness_q(GRAPH, seed=9)
        b = hardness_q(GRAPH, seed=9)
        assert a.n == b.n and a.speeds == b.speeds
        assert sorted(a.graph.edges()) == sorted(b.graph.edges())

    def test_hardness_needs_three_vertices(self):
        with pytest.raises(InvalidInstanceError):
            hardness_r(generators.empty_graph(2), seed=0)


class TestMachinesBlock:
    def test_unrelated_block(self):
        inst = build_machines_instance(
            GRAPH,
            {"kind": "unrelated", "model": "two_value", "m": 3, "high": 9},
            seed=1,
        )
        assert isinstance(inst, UnrelatedInstance) and inst.m == 3

    def test_uniform_speeds_block(self):
        inst = build_machines_instance(
            GRAPH, {"kind": "uniform", "speeds": "3,3/2,1"}, p=[2] * GRAPH.n
        )
        assert isinstance(inst, UniformInstance)
        assert inst.speeds == (Fraction(3), Fraction(3, 2), Fraction(1))
        assert inst.p == tuple([2] * GRAPH.n)

    def test_uniform_profile_block(self):
        inst = build_machines_instance(
            GRAPH, {"kind": "uniform", "profile": "geometric", "m": 4}
        )
        assert inst.speeds == geometric_speeds(4)
        assert inst.has_unit_jobs  # p=None defaults to unit jobs

    def test_uniform_hardness_q_block(self):
        inst = build_machines_instance(
            GRAPH, {"kind": "uniform", "model": "hardness_q", "k": 1}, seed=0
        )
        assert isinstance(inst, UniformInstance) and inst.m == 3

    def test_bad_blocks(self):
        with pytest.raises(InvalidInstanceError, match="kind"):
            build_machines_instance(GRAPH, {"kind": "identical"})
        with pytest.raises(InvalidInstanceError, match="JSON object"):
            build_machines_instance(GRAPH, "unrelated")
        with pytest.raises(InvalidInstanceError, match="'speeds' or 'profile'"):
            build_machines_instance(GRAPH, {"kind": "uniform"})
        with pytest.raises(InvalidInstanceError, match="not both"):
            build_machines_instance(
                GRAPH,
                {"kind": "uniform", "speeds": "1,1", "profile": "identical"},
            )
        with pytest.raises(InvalidInstanceError, match="unknown speed profile"):
            build_machines_instance(GRAPH, {"kind": "uniform", "profile": "warp"})
        with pytest.raises(InvalidInstanceError, match="unknown uniform model"):
            build_machines_instance(GRAPH, {"kind": "uniform", "model": "nope"})


class TestParsing:
    def test_parse_speeds_ok(self):
        assert parse_speeds("1,3,3/2") == [Fraction(3), Fraction(3, 2), Fraction(1)]
        assert parse_speeds([1, "2"]) == [Fraction(2), Fraction(1)]

    def test_parse_speeds_diagnostics(self):
        """Regression: malformed speeds raise InvalidInstanceError (a CLI
        diagnostic), never a raw ValueError traceback."""
        for bad in ("", "1,,2", "fast", "1/0"):
            with pytest.raises(InvalidInstanceError):
                parse_speeds(bad)
        with pytest.raises(InvalidInstanceError):
            parse_speeds([])

    def test_parse_jobs_ok(self):
        assert parse_jobs("unit", 3, None) == [1, 1, 1]
        assert parse_jobs([1, "2", 3], 3, None) == [1, 2, 3]
        drawn = parse_jobs("heavy_tailed", 5, 7)
        assert drawn == parse_jobs("heavy_tailed", 5, 7)  # seeded
        assert len(drawn) == 5

    def test_parse_jobs_diagnostics(self):
        with pytest.raises(InvalidInstanceError):
            parse_jobs("mystery", 3, None)
        with pytest.raises(InvalidInstanceError):
            parse_jobs(["x"], 1, None)


class TestConflictGraphGenerators:
    def test_complete_multipartite_from_sizes(self):
        from repro.workloads import complete_multipartite_graph

        g = complete_multipartite_graph([2, 3], free=1)
        assert g.n == 6 and len(g.parts()) == 2
        assert g.free_vertices() == [5]

    def test_random_complete_multipartite_deterministic(self):
        from repro.workloads import random_complete_multipartite

        a = random_complete_multipartite(10, 3, free=2, seed=4)
        b = random_complete_multipartite(10, 3, free=2, seed=4)
        assert a == b
        # n counts the classified vertices; free vertices are appended
        assert a.n == 12 and len(a.parts()) == 3
        assert sum(len(p) for p in a.parts()) == 10
        assert len(a.free_vertices()) == 2
        assert a != random_complete_multipartite(10, 3, free=2, seed=5)

    def test_block_chain(self):
        from repro.workloads import block_chain

        g = block_chain([3, 2, 4])
        assert g.n == 7 and len(g.blocks()) == 3

    def test_random_block_graph_deterministic_and_valid(self):
        from repro.graphs.structure import is_block_structure
        from repro.workloads import random_block_graph

        a = random_block_graph(14, max_block=4, seed=9)
        assert a.n == 14
        assert all(len(b) <= 4 for b in a.blocks())
        assert is_block_structure(a)
        assert a == random_block_graph(14, max_block=4, seed=9)

    def test_random_eligibility_shapes(self):
        from repro.workloads import random_eligibility

        masks = random_eligibility(6, 4, choices=2, seed=0)
        assert len(masks) == 6
        assert all(len(m) == 2 and m == sorted(m) for m in masks)
        assert all(0 <= i < 4 for m in masks for i in m)
        # choices >= m leaves every job unrestricted (None entries)
        assert random_eligibility(6, 2, choices=2, seed=0) == [None] * 6

    def test_machines_block_eligibility(self):
        inst = build_machines_instance(
            GRAPH,
            {"kind": "uniform", "profile": "geometric", "m": 4,
             "eligibility": {"choices": 2}},
            seed=3,
        )
        assert isinstance(inst, UniformInstance)
        assert inst.has_eligibility

    def test_eligibility_rejected_off_uniform(self):
        with pytest.raises(InvalidInstanceError, match="eligibility"):
            build_machines_instance(
                GRAPH,
                {"kind": "unrelated", "m": 3,
                 "eligibility": {"choices": 2}},
                seed=0,
            )
        with pytest.raises(InvalidInstanceError, match="eligibility"):
            build_machines_instance(
                GRAPH,
                {"kind": "uniform", "model": "hardness_q", "k": 1,
                 "eligibility": {"choices": 2}},
                seed=0,
            )

    def test_malformed_eligibility_block(self):
        with pytest.raises(InvalidInstanceError):
            build_machines_instance(
                GRAPH,
                {"kind": "uniform", "speeds": "2,1",
                 "eligibility": {"flavor": 2}},
                seed=0,
            )


class TestSuiteIntegration:
    def test_unrelated_workload_suite_names_and_determinism(self):
        from repro.analysis.suites import unrelated_workload_suite

        suite = unrelated_workload_suite(n=6, m=2, seeds=2, seed=0)
        names = [name for name, _ in suite]
        assert len(names) == len(set(names))
        assert all("/" in name for name in names)
        again = unrelated_workload_suite(n=6, m=2, seeds=2, seed=0)
        assert [inst.grid() for _, inst in suite] == [
            inst.grid() for _, inst in again
        ]

    def test_summarize_models_groups_by_prefix(self):
        from repro.analysis.suites import (
            model_ratio_table,
            summarize_models,
            unrelated_workload_suite,
            workload_model_of,
        )
        from repro.runtime import BatchRunner

        assert workload_model_of("two_value/path-n6-s0") == "two_value"
        assert workload_model_of("unprefixed") == "?"
        suite = unrelated_workload_suite(
            n=6, m=2, models=("two_value", "uniform_pij"),
            graph_families=("path",), seeds=1,
        )
        results = BatchRunner().run_to_list(suite)
        rows = summarize_models(results)
        assert [row[0] for row in rows] == ["two_value", "uniform_pij"]
        table = model_ratio_table(results, title="t")
        assert "two_value" in table and "worst ratio" in table
