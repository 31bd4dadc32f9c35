"""Tests for :mod:`repro.certify.validators` — end-to-end schedule audits."""

from fractions import Fraction

from repro.certify import CertificateReport, certify_schedule, instance_lower_bound
from repro.graphs.generators import matching_graph, path_graph
from repro.scheduling.instance import UniformInstance, UnrelatedInstance
from repro.scheduling.schedule import Schedule
from repro.engine import solve
from repro.io import instance_from_dict, instance_to_dict

F = Fraction


class TestCleanCertificates:
    def test_feasible_schedule_certifies_ok(self):
        inst = UniformInstance(path_graph(4), [3, 1, 4, 1], [2, 1])
        report = certify_schedule(solve(inst), algorithm="auto")
        assert report.ok
        assert report.conflict_violations == ()
        assert report.eligibility_violations == ()
        assert report.makespan_consistent
        assert report.lower_bound_respected
        assert report.recomputed_makespan is not None
        assert report.lower_bound == instance_lower_bound(inst)

    def test_empty_instance(self):
        from repro.graphs.generators import empty_graph

        inst = UniformInstance(empty_graph(0), [], [1])
        report = certify_schedule(Schedule(inst, []))
        assert report.ok
        assert report.recomputed_makespan == 0

    def test_unrelated_ok(self):
        inst = UnrelatedInstance(matching_graph(2), [[1, 2, 3, 4], [4, 3, 2, 1]])
        report = certify_schedule(solve(inst))
        assert report.ok and report.m == 2

    def test_decoded_unrelated_builds_no_fraction_view(self):
        # a decoded R instance carries only its tick grid; the certificate
        # is the one for the same times given to the constructor
        times = [["1/2", "3/4", "5/6", "7/8"], ["2/3", "1/3", "5/3", "3/2"]]
        built = UnrelatedInstance(matching_graph(2), times)
        decoded = instance_from_dict(instance_to_dict(built))
        assert not hasattr(decoded, "times")
        assignment = [0, 1, 0, 1]
        report = certify_schedule(Schedule(decoded, assignment))
        assert not hasattr(decoded, "times")
        assert report == certify_schedule(Schedule(built, assignment))
        assert report.ok and report.recomputed_makespan == F(11, 6)


class TestViolationDetection:
    def test_conflict_edge_caught(self):
        # jobs 0-1 conflict; cram both onto machine 0
        inst = UniformInstance(matching_graph(1), [2, 2], [1, 1])
        bad = Schedule(inst, [0, 0], check=False)
        report = certify_schedule(bad)
        assert not report.ok
        assert report.conflict_violations == ((0, 1, 0),)

    def test_every_conflict_listed(self):
        inst = UniformInstance(path_graph(3), [1, 1, 1], [1, 1])
        bad = Schedule(inst, [0, 0, 0], check=False)
        report = certify_schedule(bad)
        assert len(report.conflict_violations) == 2  # edges (0,1) and (1,2)

    def test_eligibility_caught(self):
        inst = UnrelatedInstance(matching_graph(1), [[1, None], [None, 1]])
        bad = Schedule(inst, [0, 0], check=False)
        report = certify_schedule(bad)
        assert not report.ok
        assert (1, 0) in report.eligibility_violations
        # makespan cannot be recomputed over a forbidden pair
        assert report.recomputed_makespan is None
        assert not report.makespan_consistent

    def test_lying_claimed_makespan_caught(self):
        inst = UniformInstance(path_graph(2), [3, 5], [1, 1])
        good = Schedule(inst, [0, 1])
        report = certify_schedule(good, claimed_makespan=F(1))
        assert not report.ok
        assert not report.makespan_consistent
        assert report.recomputed_makespan == 5
        assert report.claimed_makespan == 1
        assert "makespan mismatch" in report.describe()


class TestSerialization:
    def test_round_trip(self):
        inst = UniformInstance(path_graph(4), [3, 1, 4, 1], [2, 1])
        report = certify_schedule(solve(inst), algorithm="sqrt_approx")
        data = report.to_dict()
        back = CertificateReport.from_dict(data)
        assert back == report

    def test_round_trip_with_violations(self):
        inst = UniformInstance(matching_graph(1), [2, 2], [1, 1])
        report = certify_schedule(Schedule(inst, [0, 0], check=False))
        back = CertificateReport.from_dict(report.to_dict())
        assert back == report
        assert not back.ok

    def test_dict_is_json_safe(self):
        import json

        inst = UniformInstance(path_graph(2), [1, 1], [1, 1])
        report = certify_schedule(solve(inst))
        json.dumps(report.to_dict())  # must not raise
