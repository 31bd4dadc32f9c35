"""End-to-end coverage of the non-bipartite conflict-graph families.

One file walks the whole pipeline the refactor opened up: serialise a
complete-multipartite / block / eligibility-masked instance as a
``repro/v2`` payload, reload it, auto-dispatch through the engine
(explain mode included), race it through the portfolio, and audit the
result with :mod:`repro.certify` — plus the hardening tests that pin
malformed payloads to :exc:`~repro.exceptions.InvalidInstanceError`.
"""

from fractions import Fraction

import pytest

from repro.certify import audit_instance
from repro.engine import auto_choice, explain_dispatch, solve
from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.graphs import generators
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.conflict import BlockGraph, CompleteMultipartiteGraph, two_coloring
from repro.io import (
    graph_from_dict,
    graph_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.scheduling.instance import (
    UniformInstance,
    UnrelatedInstance,
    unit_uniform_instance,
)

F = Fraction


def _cmp_instance():
    graph = CompleteMultipartiteGraph.from_sizes([2, 2, 3], free=1)
    return unit_uniform_instance(graph, [F(3), F(2), F(1)])


def _block_instance():
    graph = BlockGraph.chain([3, 2, 3])
    return UniformInstance(graph, [2, 1, 3, 1, 2, 4], [F(2), F(1), F(1)])


def _forest_block_instance():
    # a forest (two trees and an isolated vertex) stored as a BlockGraph,
    # so 2-colorable and open to the bipartite methods as it is stored
    graph = BlockGraph(8, [(0, 1), (1, 2), (1, 3), (4, 5), (5, 6)])
    return UniformInstance(graph, [5, 3, 4, 2, 6, 1, 3, 2], [F(3), F(2), F(1)])


def _as_bipartite_graph_instance(inst):
    """``inst``'s jobs and machines on the ``BipartiteGraph`` with the
    same edges, whose declared witness is the graph's 2-coloring."""
    graph = BipartiteGraph(inst.graph.n, inst.graph.edges(), side=two_coloring(inst.graph))
    return UniformInstance(graph, inst.p, inst.speeds)


def _masked_instance():
    graph = generators.matching_graph(2)
    return UniformInstance(
        graph,
        [2, 3, 1, 2],
        [F(2), F(1), F(1)],
        eligible=[[0, 1], None, [1, 2], None],
    )


class TestV2Serialization:
    def test_multipartite_roundtrip(self, tmp_path):
        inst = _cmp_instance()
        payload = instance_to_dict(inst)
        assert payload["format"] == "repro/v2"
        assert payload["graph"]["graph_kind"] == "complete_multipartite"
        path = save_instance(inst, tmp_path / "cmp.json")
        loaded = load_instance(path)
        assert isinstance(loaded.graph, CompleteMultipartiteGraph)
        assert loaded.graph == inst.graph
        assert loaded.p == inst.p and loaded.speeds == inst.speeds

    def test_block_roundtrip(self, tmp_path):
        inst = _block_instance()
        payload = instance_to_dict(inst)
        assert payload["graph"]["graph_kind"] == "block"
        loaded = load_instance(save_instance(inst, tmp_path / "blk.json"))
        assert isinstance(loaded.graph, BlockGraph)
        assert loaded.graph.blocks() == inst.graph.blocks()

    def test_eligibility_roundtrip(self):
        inst = _masked_instance()
        payload = instance_to_dict(inst)
        # bipartite graph but masks force the v2 envelope
        assert payload["format"] == "repro/v2"
        assert payload["graph"]["format"] == "repro/v1"
        assert payload["eligible"] == [[0, 1], None, [1, 2], None]
        loaded = instance_from_dict(payload)
        assert loaded.eligible == inst.eligible

    def test_full_eligibility_mask_normalises_away(self):
        inst = UniformInstance(
            generators.matching_graph(1),
            [1, 1],
            [F(1), F(1)],
            eligible=[[0, 1], None],
        )
        assert not inst.has_eligibility
        assert instance_to_dict(inst)["format"] == "repro/v1"

    def test_unrelated_on_block_graph(self):
        inst = UnrelatedInstance(
            BlockGraph(3, [[0, 1, 2]]), [[1, 2, 3], [3, 2, 1], [2, 2, 2]]
        )
        payload = instance_to_dict(inst)
        assert payload["format"] == "repro/v2"
        loaded = instance_from_dict(payload)
        assert loaded.grid() == inst.grid()

    def test_schedule_roundtrip_through_v2(self):
        inst = _block_instance()
        schedule = solve(inst)
        payload = schedule_to_dict(schedule)
        assert payload["format"] == "repro/v2"
        loaded = schedule_from_dict(payload, check=True)
        assert loaded.makespan == schedule.makespan

    def test_graph_roundtrip_preserves_parts(self):
        g = CompleteMultipartiteGraph(5, [[0, 4], [1, 3]])
        again = graph_from_dict(graph_to_dict(g))
        assert again.parts() == ((0, 4), (1, 3))
        assert again.free_vertices() == [2]


class TestMalformedPayloads:
    def test_unknown_graph_kind(self):
        with pytest.raises(InvalidInstanceError, match="unknown graph_kind"):
            graph_from_dict(
                {"format": "repro/v2", "kind": "graph",
                 "graph_kind": "hypercube", "n": 4}
            )

    def test_missing_parts_is_diagnostic(self):
        with pytest.raises(InvalidInstanceError, match="malformed"):
            graph_from_dict(
                {"format": "repro/v2", "kind": "graph",
                 "graph_kind": "complete_multipartite", "n": 4}
            )

    def test_non_numeric_blocks_is_diagnostic(self):
        with pytest.raises(InvalidInstanceError, match="malformed"):
            graph_from_dict(
                {"format": "repro/v2", "kind": "graph",
                 "graph_kind": "block", "n": 4, "blocks": [["a", "b"]]}
            )

    def test_invalid_parts_keep_their_own_diagnostic(self):
        with pytest.raises(InvalidInstanceError, match="appears in parts"):
            graph_from_dict(
                {"format": "repro/v2", "kind": "graph",
                 "graph_kind": "complete_multipartite", "n": 3,
                 "parts": [[0, 1], [1, 2]]}
            )

    def test_malformed_instance_payloads(self):
        base = instance_to_dict(_cmp_instance())
        broken = dict(base)
        del broken["p"]
        with pytest.raises(InvalidInstanceError, match="malformed"):
            instance_from_dict(broken)
        with pytest.raises(InvalidInstanceError, match="unknown instance kind"):
            instance_from_dict({"kind": "quantum_instance"})
        with pytest.raises(InvalidInstanceError, match="JSON object"):
            instance_from_dict([1, 2, 3])

    def test_malformed_eligible_payloads(self):
        base = instance_to_dict(_masked_instance())
        broken = dict(base)
        broken["eligible"] = "everyone"
        with pytest.raises(InvalidInstanceError, match="eligible"):
            instance_from_dict(broken)
        broken["eligible"] = [[0], None]  # wrong length
        with pytest.raises(InvalidInstanceError, match="masks"):
            instance_from_dict(broken)


class TestEngineEndToEnd:
    def test_multipartite_unit_dispatches_to_exact(self):
        inst = _cmp_instance()
        assert auto_choice(inst) == "complete_multipartite_min_time"
        schedule = solve(inst)
        assert schedule.is_feasible()

    def test_block_dispatches_to_color_split(self):
        inst = _block_instance()
        assert auto_choice(inst) == "conflict_color_split"
        assert solve(inst).is_feasible()

    def test_masked_dispatches_to_color_split(self):
        inst = _masked_instance()
        assert auto_choice(inst) == "conflict_color_split"
        schedule = solve(inst)
        assert schedule.is_feasible()
        for j, machine in enumerate(schedule.assignment):
            assert machine in inst.eligible_machines(j)

    def test_explain_mode_covers_new_families(self):
        report = explain_dispatch(_block_instance())
        assert report.chosen == "conflict_color_split"
        by_name = {e.name: e for e in report.entries}
        assert by_name["conflict_color_split"].chosen
        assert not by_name["sqrt_approx"].applicable
        assert "bipartite" in by_name["sqrt_approx"].why

    def test_explain_reports_infeasible_families(self):
        # one machine, conflicting jobs: dispatch itself is infeasible
        graph = BlockGraph.chain([3, 2])
        inst = unit_uniform_instance(graph, [F(1)])
        report = explain_dispatch(inst)
        assert report.chosen is None and report.error is not None

    def test_portfolio_races_new_families(self):
        from repro.engine import portfolio_solve

        result = portfolio_solve(_block_instance())
        assert result.schedule.is_feasible()
        assert result.chosen in {e.algorithm for e in result.entries}

    def test_explain_on_block_forest_matches_bipartite_graph(self):
        inst = _forest_block_instance()
        report = explain_dispatch(inst)
        native = explain_dispatch(_as_bipartite_graph_instance(inst))
        assert report.chosen == native.chosen == "sqrt_approx"
        assert [(e.name, e.applicable) for e in report.entries] == [
            (e.name, e.applicable) for e in native.entries
        ]

    def test_portfolio_races_bipartite_methods_on_block_forest(self):
        from repro.engine import portfolio_solve

        inst = _forest_block_instance()
        result = portfolio_solve(inst)
        native = portfolio_solve(_as_bipartite_graph_instance(inst))
        assert result.schedule.instance is inst
        assert "sqrt_approx" in {e.algorithm for e in result.entries}
        assert (result.chosen, result.schedule.assignment) == (
            native.chosen,
            native.schedule.assignment,
        )
        assert [(e.algorithm, e.makespan, e.error) for e in result.entries] == [
            (e.algorithm, e.makespan, e.error) for e in native.entries
        ]

    def test_infeasible_multipartite_raises(self):
        graph = CompleteMultipartiteGraph.from_sizes([1, 1, 1])
        inst = unit_uniform_instance(graph, [F(1), F(1)])
        with pytest.raises(InfeasibleInstanceError):
            solve(inst)

    def test_coloring_infeasibility_detected_at_run_time(self):
        # K_4 on two machines: the color split applies (m >= 2) but its
        # optimal coloring proves infeasibility when run
        graph = BlockGraph.chain([4, 3])
        inst = unit_uniform_instance(graph, [F(1), F(1)])
        with pytest.raises(InfeasibleInstanceError, match="4 machines"):
            solve(inst)


class TestCertifyEndToEnd:
    """A clean audit = no row with a violation status (violated /
    infeasible_output / crash); ``no_guarantee`` and declared heuristic
    give-ups (``error``) are reportable, not defects."""

    @staticmethod
    def _assert_clean(rows):
        from repro.certify import VIOLATION_STATUSES

        assert rows
        bad = [
            (row.algorithm, row.status, row.detail)
            for row in rows
            if row.status in VIOLATION_STATUSES
        ]
        assert not bad, bad

    def test_audit_multipartite_instance(self):
        rows = audit_instance("cmp", _cmp_instance(), oracle_max_n=8)
        self._assert_clean(rows)
        by_algorithm = {row.algorithm: row for row in rows}
        # the exact algorithm must be audited and hit the oracle exactly
        exact = by_algorithm["complete_multipartite_min_time"]
        assert exact.status == "ok" and exact.ratio == 1.0

    def test_audit_block_instance(self):
        rows = audit_instance("blk", _block_instance(), oracle_max_n=6)
        self._assert_clean(rows)
        by_algorithm = {row.algorithm: row for row in rows}
        split = by_algorithm["conflict_color_split"]
        assert split.status in ("ok", "ok_vs_bound", "no_guarantee")
        assert split.makespan is not None  # it did produce a schedule

    def test_audit_block_forest_matches_bipartite_graph(self):
        inst = _forest_block_instance()
        rows = audit_instance("forest", inst, oracle_max_n=8)
        native = audit_instance("forest", _as_bipartite_graph_instance(inst), oracle_max_n=8)
        self._assert_clean(rows)
        by_algorithm = {row.algorithm: row for row in rows}
        assert by_algorithm["sqrt_approx"].status == "ok"
        assert [row.to_dict() for row in rows] == [row.to_dict() for row in native]

    def test_audit_masked_instance(self):
        rows = audit_instance("masked", _masked_instance(), oracle_max_n=6)
        self._assert_clean(rows)
        assert "conflict_color_split" in {row.algorithm for row in rows}
