"""Tests for :mod:`repro.certify.auditor` — guarantee-violation sweeps."""

from fractions import Fraction

from repro.certify import (
    VIOLATION_STATUSES,
    audit_guarantees,
    audit_instance,
)
from repro.graphs.generators import matching_graph, path_graph
from repro.scheduling.instance import UniformInstance
from repro.scheduling.schedule import Schedule
from repro.engine import ALGORITHMS, AlgorithmSpec, Capability

F = Fraction

#: test-fixture capabilities: two uniform machines, or any instance
_UNIFORM_M2 = Capability(
    machine_kind="uniform", min_machines=2, max_machines=2, supports_eligibility=True
)
_ANY = Capability(supports_eligibility=True)


def _worst_split(instance):
    """Deliberately bad but feasible: proper 2-coloring split on 2 machines."""
    from repro.scheduling.baselines import two_machine_split

    return two_machine_split(instance)


class TestAuditInstance:
    def test_dispatched_algorithms_all_clean(self):
        inst = UniformInstance(path_graph(6), [2, 1, 3, 1, 2, 1], [2, 1, 1])
        rows = audit_instance("p6", inst)
        assert rows
        assert all(r.status not in VIOLATION_STATUSES for r in rows)
        # ground truth was available, so some row checked against OPT
        assert any(r.optimal is not None for r in rows)

    def test_algorithm_subset_filter(self):
        inst = UniformInstance(path_graph(4), [1, 1, 1, 1], [1, 1])
        rows = audit_instance("p4", inst, algorithms=("sqrt_approx",))
        assert [r.algorithm for r in rows] == ["sqrt_approx"]

    def test_oracle_cutoff_respected(self):
        inst = UniformInstance(path_graph(6), [1] * 6, [1, 1])
        rows = audit_instance("p6", inst, oracle_max_n=2)
        assert all(r.optimal is None for r in rows)

    def test_exact_methods_status_ok(self):
        inst = UniformInstance(path_graph(4), [2, 3, 1, 2], [2, 1])
        rows = audit_instance("p4", inst, algorithms=("brute_force",))
        (row,) = rows
        assert row.status in ("ok", "ok_vs_bound")
        assert row.makespan == row.optimal

    def test_graph_blind_on_edges_is_not_a_violation(self):
        inst = UniformInstance(matching_graph(2), [1, 1, 1, 1], [1, 1])
        rows = audit_instance("m2", inst, algorithms=("lpt",))
        (row,) = rows
        assert row.status == "no_guarantee"

    def test_rows_serialise(self):
        import json

        inst = UniformInstance(path_graph(4), [1, 1, 1, 1], [1, 1])
        for row in audit_instance("p4", inst):
            json.dumps(row.to_dict())


class TestLyingSpecCaught:
    """The auditor must convict a spec whose declared guarantee is false."""

    def _lying_specs(self):
        spec = AlgorithmSpec(
            name="liar",
            guarantee="claims exact, is not",
            anchor="test fixture",
            capability=_UNIFORM_M2,
            run=_worst_split,
            ratio_bound=lambda inst: F(1),
        )
        return {"liar": spec}

    def test_violated_status(self):
        # two incompatible pairs, wildly uneven sizes: the color split is
        # far from optimal, so a claimed ratio of 1 must be convicted
        inst = UniformInstance(matching_graph(2), [9, 1, 9, 1], [1, 1])
        rows = audit_instance("trap", inst, specs=self._lying_specs())
        (row,) = rows
        assert row.status == "violated"
        assert "VIOLATED" in row.detail
        assert row.optimal is not None and row.makespan > row.optimal

    def test_honest_bound_passes(self):
        spec = AlgorithmSpec(
            name="honest",
            guarantee="2-approximate color split (true on this instance)",
            anchor="test fixture",
            capability=_UNIFORM_M2,
            run=_worst_split,
            ratio_bound=lambda inst: F(100),
        )
        inst = UniformInstance(matching_graph(2), [9, 1, 9, 1], [1, 1])
        (row,) = audit_instance("ok", inst, specs={"honest": spec})
        assert row.status in ("ok", "ok_vs_bound")

    def test_infeasible_output_caught(self):
        def cram(instance):
            return Schedule(instance, [0] * instance.n, check=False)

        spec = AlgorithmSpec(
            name="crammer",
            guarantee="claims feasibility, ignores the graph",
            anchor="test fixture",
            capability=_ANY,
            run=cram,
            ratio_bound=lambda inst: F(1),
        )
        inst = UniformInstance(matching_graph(1), [1, 1], [1, 1])
        (row,) = audit_instance("cram", inst, specs={"crammer": spec})
        assert row.status == "infeasible_output"
        assert row.certificate is not None
        assert row.certificate.conflict_violations

    def test_crashing_solver_is_a_violation(self):
        """Undeclared exceptions (the dual-approx AssertionError class of
        bug) must FAIL the sweep, not hide in a non-failing status."""

        def boom(instance):
            raise AssertionError("internal invariant broke")

        spec = AlgorithmSpec(
            name="boom",
            guarantee="none",
            anchor="test fixture",
            capability=_ANY,
            run=boom,
        )
        inst = UniformInstance(path_graph(2), [1, 1], [1, 1])
        (row,) = audit_instance("boom", inst, specs={"boom": spec})
        assert row.status == "crash"
        assert row.status in VIOLATION_STATUSES
        assert "AssertionError" in row.detail

    def test_solver_built_infeasible_schedule_is_a_violation(self):
        """InvalidScheduleError from eager Schedule validation means the
        solver *produced* an infeasible schedule — that must fail the
        sweep, not hide as a benign 'error'."""

        def cram_checked(instance):
            return Schedule(instance, [0] * instance.n)  # check=True raises

        spec = AlgorithmSpec(
            name="cram_checked",
            guarantee="claims feasibility",
            anchor="test fixture",
            capability=_ANY,
            run=cram_checked,
        )
        inst = UniformInstance(matching_graph(1), [1, 1], [1, 1])
        (row,) = audit_instance("cc", inst, specs={"cram_checked": spec})
        assert row.status == "infeasible_output"
        assert row.status in VIOLATION_STATUSES

    def test_declared_failure_is_error_not_crash(self):
        from repro.exceptions import InfeasibleInstanceError

        def give_up(instance):
            raise InfeasibleInstanceError("declared failure mode")

        spec = AlgorithmSpec(
            name="giver",
            guarantee="none",
            anchor="test fixture",
            capability=_ANY,
            run=give_up,
        )
        inst = UniformInstance(path_graph(2), [1, 1], [1, 1])
        (row,) = audit_instance("gu", inst, specs={"giver": spec})
        assert row.status == "error"
        assert row.status not in VIOLATION_STATUSES

    def test_guarantee_check_predicate_convicts(self):
        """A spec-level guarantee_check (the Theorem 9 mechanism) is
        honoured for any algorithm, not a name-coupled special case."""

        spec = AlgorithmSpec(
            name="pred_liar",
            guarantee="claims Cmax^2 <= OPT^2 (i.e. exact)",
            anchor="test fixture",
            capability=_UNIFORM_M2,
            run=_worst_split,
            guarantee_check=lambda inst, cmax, opt: cmax * cmax
            <= opt * opt,
        )
        inst = UniformInstance(matching_graph(2), [9, 1, 9, 1], [1, 1])
        (row,) = audit_instance("pl", inst, specs={"pred_liar": spec})
        assert row.status == "violated"

    def test_exponential_specs_skipped_above_cutoff(self):
        inst = UniformInstance(path_graph(6), [1] * 6, [1, 1])
        with_oracle = audit_instance(
            "p6", inst, algorithms=("brute_force",), oracle_max_n=10
        )
        assert [r.algorithm for r in with_oracle] == ["brute_force"]
        above = audit_instance(
            "p6", inst, algorithms=("brute_force",), oracle_max_n=4
        )
        assert above == []


class TestAuditGuarantees:
    def test_sweep_shape_and_cleanliness(self):
        suite = [
            ("a", UniformInstance(path_graph(4), [1, 1, 1, 1], [1, 1])),
            ("b", UniformInstance(matching_graph(2), [2, 1, 2, 1], [2, 1])),
        ]
        rows = audit_guarantees(suite, algorithms=("sqrt_approx", "q2_fptas"))
        assert {r.name for r in rows} == {"a", "b"}
        assert all(r.status not in VIOLATION_STATUSES for r in rows)

    def test_registry_is_default(self):
        inst = UniformInstance(path_graph(4), [1, 1, 1, 1], [1, 1])
        rows = audit_guarantees([("x", inst)])
        audited = {r.algorithm for r in rows}
        applicable = {
            s.name for s in ALGORITHMS.values() if s.applies(inst)
        }
        assert audited == applicable
