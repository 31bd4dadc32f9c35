"""Tests for instance containers (Q / P / R environments)."""

from fractions import Fraction

import pytest

from repro.exceptions import InvalidInstanceError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import matching_graph, path_graph
from repro.scheduling.instance import (
    UniformInstance,
    UnrelatedInstance,
    identical_instance,
    make_uniform_instance,
    unit_uniform_instance,
)


class TestUniformInstance:
    def test_basic_properties(self):
        g = path_graph(3)
        inst = UniformInstance(g, [2, 3, 4], [Fraction(3), Fraction(1)])
        assert inst.n == 3 and inst.m == 2
        assert inst.total_p == 9 and inst.pmax == 4
        assert not inst.is_identical and not inst.has_unit_jobs

    def test_processing_time(self):
        g = path_graph(2)
        inst = UniformInstance(g, [6, 3], [3, 2])
        assert inst.processing_time(0, 0) == Fraction(2)
        assert inst.processing_time(1, 1) == Fraction(3, 2)

    def test_machine_completion(self):
        g = BipartiteGraph(3, [])
        inst = UniformInstance(g, [4, 2, 6], [2])
        assert inst.machine_completion(0, [0, 2]) == Fraction(5)

    def test_speed_order_enforced(self):
        g = path_graph(2)
        with pytest.raises(InvalidInstanceError):
            UniformInstance(g, [1, 1], [1, 2])

    def test_make_uniform_sorts(self):
        g = path_graph(2)
        inst = make_uniform_instance(g, [1, 1], [1, 5, 3])
        assert inst.speeds == (Fraction(5), Fraction(3), Fraction(1))

    def test_positive_speeds_required(self):
        g = path_graph(2)
        with pytest.raises(InvalidInstanceError):
            UniformInstance(g, [1, 1], [1, 0])

    def test_p_length_checked(self):
        g = path_graph(3)
        with pytest.raises(InvalidInstanceError):
            UniformInstance(g, [1, 1], [1])

    def test_p_positive_ints(self):
        g = path_graph(2)
        with pytest.raises(InvalidInstanceError):
            UniformInstance(g, [1, 0], [1])
        with pytest.raises(InvalidInstanceError):
            UniformInstance(g, [1, 1.5], [1])  # type: ignore[list-item]

    def test_no_machines_rejected(self):
        g = path_graph(2)
        with pytest.raises(InvalidInstanceError):
            UniformInstance(g, [1, 1], [])

    def test_identical_helper(self):
        inst = identical_instance(path_graph(3), [1, 2, 3], 4)
        assert inst.is_identical and inst.m == 4

    def test_unit_helper(self):
        inst = unit_uniform_instance(path_graph(3), [2, 1])
        assert inst.has_unit_jobs and inst.total_p == 3

    def test_float_speed_means_decimal(self):
        inst = unit_uniform_instance(path_graph(2), [1, 0.5])
        assert inst.speeds[1] == Fraction(1, 2)

    @pytest.mark.parametrize(
        "eligible", [None, [[0], None, [1, 2], [2]]], ids=["unmasked", "masked"]
    )
    def test_allows_agrees_with_processing_time(self, eligible):
        inst = UniformInstance(
            BipartiteGraph(4, []), [1, 2, 3, 4], [3, 2, 1], eligible=eligible
        )
        for i in range(inst.m):
            for j in range(inst.n):
                assert inst.allows(i, j) == (inst.processing_time(i, j) is not None)


class TestToUnrelated:
    def test_full_conversion(self):
        g = path_graph(2)
        inst = UniformInstance(g, [6, 4], [3, 2])
        r = inst.to_unrelated()
        assert r.m == 2
        assert r.times[0][0] == Fraction(2)
        assert r.times[1][1] == Fraction(2)

    def test_machine_subset(self):
        g = path_graph(2)
        inst = UniformInstance(g, [6, 4], [6, 3, 1])
        r = inst.to_unrelated([0, 1])
        assert r.m == 2
        assert r.times[1][0] == Fraction(2)


class TestUnrelatedInstance:
    def test_basic(self):
        g = matching_graph(1)
        inst = UnrelatedInstance(g, [[1, 2], [3, 4]])
        assert inst.m == 2
        assert inst.processing_time(1, 0) == Fraction(3)
        assert inst.allows(0, 0)

    def test_forbidden_pairs(self):
        g = BipartiteGraph(2, [])
        inst = UnrelatedInstance(g, [[1, None], [None, 1]])
        assert not inst.allows(0, 1)
        assert inst.allows(0, 0)

    def test_job_forbidden_everywhere_rejected(self):
        g = BipartiteGraph(2, [])
        with pytest.raises(InvalidInstanceError):
            UnrelatedInstance(g, [[1, None], [1, None]])

    def test_negative_time_rejected(self):
        g = BipartiteGraph(1, [])
        with pytest.raises(InvalidInstanceError):
            UnrelatedInstance(g, [[-1]])

    def test_ragged_matrix_rejected(self):
        g = BipartiteGraph(2, [])
        with pytest.raises(InvalidInstanceError):
            UnrelatedInstance(g, [[1], [1, 2]])

    def test_completion_raises_on_forbidden(self):
        g = BipartiteGraph(2, [])
        inst = UnrelatedInstance(g, [[1, None], [1, 1]])
        with pytest.raises(InvalidInstanceError):
            inst.machine_completion(0, [1])

    def test_completion_sums(self):
        g = BipartiteGraph(3, [])
        inst = UnrelatedInstance(g, [[1, 2, 3], [4, 5, 6]])
        assert inst.machine_completion(1, [0, 2]) == Fraction(10)
