"""Tests for schedules and feasibility validation."""

from fractions import Fraction

import pytest

from repro.exceptions import InvalidInstanceError, InvalidScheduleError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import matching_graph, path_graph
from repro.scheduling.instance import UniformInstance, UnrelatedInstance
from repro.scheduling.schedule import Schedule


def simple_instance(m: int = 2) -> UniformInstance:
    return UniformInstance(path_graph(4), [3, 1, 2, 4], [Fraction(2)] + [Fraction(1)] * (m - 1))


class TestScheduleBasics:
    def test_makespan_uniform(self):
        inst = simple_instance()
        s = Schedule(inst, [0, 1, 0, 1])
        # machine 0 (speed 2): p = 3 + 2 = 5 -> 5/2; machine 1: 1 + 4 = 5
        assert s.completion_times() == (Fraction(5, 2), Fraction(5))
        assert s.makespan == Fraction(5)

    def test_makespan_unrelated(self):
        g = BipartiteGraph(2, [])
        inst = UnrelatedInstance(g, [[5, 1], [2, 2]])
        s = Schedule(inst, [1, 0])
        assert s.makespan == Fraction(2)

    def test_empty_schedule(self):
        g = BipartiteGraph(0, [])
        inst = UniformInstance(g, [], [1])
        assert Schedule(inst, []).makespan == 0

    def test_jobs_on(self):
        inst = simple_instance()
        s = Schedule(inst, [0, 1, 0, 1])
        assert s.jobs_on(0) == [0, 2]
        assert s.machine_groups() == [[0, 2], [1, 3]]


class TestValidation:
    def test_conflict_detected(self):
        inst = simple_instance()
        with pytest.raises(InvalidScheduleError, match="incompatible"):
            Schedule(inst, [0, 0, 1, 1])  # jobs 0-1 adjacent on machine 0

    def test_check_false_defers(self):
        inst = simple_instance()
        s = Schedule(inst, [0, 0, 1, 1], check=False)
        assert not s.is_feasible()
        assert len(s.violations()) == 2  # (0,1) on M0 and (2,3) on M1

    def test_forbidden_pair_detected(self):
        g = BipartiteGraph(2, [])
        inst = UnrelatedInstance(g, [[1, None], [1, 1]])
        with pytest.raises(InvalidScheduleError, match="forbidden"):
            Schedule(inst, [0, 0])

    def test_machine_range_checked(self):
        inst = simple_instance()
        with pytest.raises(InvalidScheduleError):
            Schedule(inst, [0, 1, 0, 5])

    def test_length_checked(self):
        inst = simple_instance()
        with pytest.raises(InvalidScheduleError):
            Schedule(inst, [0, 1])

    def test_valid_schedule_passes(self):
        inst = simple_instance()
        s = Schedule(inst, [0, 1, 0, 1])
        assert s.is_feasible()
        assert s.violations() == []


class TestKeptVerdict:
    def test_checked_schedule_does_not_rescan(self, monkeypatch):
        s = Schedule(simple_instance(), [0, 1, 0, 1])

        def rescan(self):
            raise AssertionError("violations() ran again")

        monkeypatch.setattr(Schedule, "violations", rescan)
        assert s.is_feasible()

    def test_unchecked_schedule_computes_its_verdict(self):
        inst = simple_instance()
        assert not Schedule(inst, [0, 0, 1, 1], check=False).is_feasible()
        assert Schedule(inst, [0, 1, 0, 1], check=False).is_feasible()

    def test_unrelated_completion_is_one_exact_sum(self):
        inst = UnrelatedInstance(BipartiteGraph(3, []), [["1/3", "1/6", None], [1, 2, 3]])
        assert (inst.scale, inst.load_ticks(0, [0, 1]), inst.load_ticks(0, [1, 2])) == (6, 3, None)
        assert inst.machine_completion(0, iter([0, 1])) == Fraction(1, 2)
        assert inst.machine_completion(1, []) == 0
        with pytest.raises(InvalidInstanceError, match="job 2 is forbidden on machine 0"):
            inst.machine_completion(0, [1, 2])


class TestEquality:
    def test_same_assignment_equal(self):
        inst = simple_instance()
        a = Schedule(inst, [0, 1, 0, 1])
        b = Schedule(inst, [0, 1, 0, 1])
        assert a == b and hash(a) == hash(b)

    def test_different_assignment_unequal(self):
        inst = UniformInstance(matching_graph(1), [1, 1], [1, 1])
        assert Schedule(inst, [0, 1]) != Schedule(inst, [1, 0])
