"""Tests for instance containers (Q / P / R environments)."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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

from tests.conftest import grid_rationals


class TestUniformInstance:
    def test_basic_properties(self):
        g = path_graph(3)
        inst = UniformInstance(g, [2, 3, 4], [Fraction(3), Fraction(1)])
        assert inst.n == 3 and inst.m == 2
        assert inst.total_p == 9 and inst.pmax == 4
        assert not inst.is_identical and not inst.has_unit_jobs

    def test_grid(self):
        g = path_graph(2)
        inst = UniformInstance(g, [6, 3], [3, 2])
        scale, ticks = inst.grid()
        assert Fraction(ticks[0][0], scale) == Fraction(2)
        assert Fraction(ticks[1][1], scale) == Fraction(3, 2)

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
    def test_allows_agrees_with_grid(self, eligible):
        inst = UniformInstance(
            BipartiteGraph(4, []), [1, 2, 3, 4], [3, 2, 1], eligible=eligible
        )
        _, ticks = inst.grid()
        for i in range(inst.m):
            for j in range(inst.n):
                assert inst.allows(i, j) == (ticks[i][j] is not None)


class TestToUnrelated:
    def test_full_conversion(self):
        g = path_graph(2)
        inst = UniformInstance(g, [6, 4], [3, 2])
        r = inst.to_unrelated()
        assert r.m == 2
        assert grid_rationals(r)[0][0] == Fraction(2)
        assert grid_rationals(r)[1][1] == Fraction(2)

    def test_machine_subset(self):
        g = path_graph(2)
        inst = UniformInstance(g, [6, 4], [6, 3, 1])
        r = inst.to_unrelated([0, 1])
        assert r.m == 2
        assert grid_rationals(r)[1][0] == Fraction(2)


@settings(max_examples=60, deadline=None)
@given(
    p=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    speeds=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 6)), min_size=1, max_size=4),
    data=st.data(),
)
def test_property_to_unrelated_is_p_over_s(p, speeds, data):
    """On all machines, on a subset and under eligibility masks, the ticks
    on the speed grid give exactly ``Fraction(p_j) / s_i``."""
    s = sorted((Fraction(a, b) for a, b in speeds), reverse=True)
    n, m = len(p), len(s)
    eligible = data.draw(st.none() | st.lists(
        st.none() | st.lists(st.integers(0, m - 1), min_size=1), min_size=n, max_size=n))
    machines = data.draw(st.none() | st.lists(st.integers(0, m - 1), min_size=1, unique=True))
    inst = UniformInstance(matching_graph(n // 2) if n % 2 == 0 else path_graph(n), p, s, eligible)
    idx = range(m) if machines is None else machines
    times = tuple(
        tuple(Fraction(p[j]) / s[i] if inst.allows(i, j) else None for j in range(n))
        for i in idx
    )
    if any(all(row[j] is None for row in times) for j in range(n)):
        with pytest.raises(InvalidInstanceError, match="forbidden on every machine"):
            inst.to_unrelated(machines)
        return
    r = inst.to_unrelated(machines)
    assert grid_rationals(r) == times
    reference = UnrelatedInstance(inst.graph, times)
    assert (r.scale, r.ticks) == (reference.scale, reference.ticks)


@settings(max_examples=60, deadline=None)
@given(
    p=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    speeds=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 6)), min_size=1, max_size=4),
    data=st.data(),
)
def test_property_uniform_grid_is_p_over_s(p, speeds, data):
    """``grid()`` of a ``Q`` instance, masked or not, is ``Fraction(p_j) /
    s_i`` with ``None`` exactly where a mask excludes the machine, and
    ``to_unrelated(machines)`` is ``from_ticks`` of the grid's chosen rows."""
    s = sorted((Fraction(a, b) for a, b in speeds), reverse=True)
    n, m = len(p), len(s)
    eligible = data.draw(st.none() | st.lists(
        st.none() | st.lists(st.integers(0, m - 1), min_size=1), min_size=n, max_size=n))
    inst = UniformInstance(path_graph(n), p, s, eligible)
    scale, ticks = inst.grid()
    for i in range(m):
        for j in range(n):
            if eligible is not None and eligible[j] is not None and i not in eligible[j]:
                assert ticks[i][j] is None
            else:
                assert Fraction(ticks[i][j], scale) == Fraction(p[j]) / s[i]
    machines = data.draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True))
    rows = [ticks[i] for i in machines]
    assume(all(any(row[j] is not None for row in rows) for j in range(n)))
    r = inst.to_unrelated(machines)
    chosen = UnrelatedInstance.from_ticks(inst.graph, scale, rows)
    assert (r.scale, r.ticks) == (chosen.scale, chosen.ticks)


@settings(max_examples=60, deadline=None)
@given(
    times=st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(
            st.none() | st.fractions(min_value=0, max_value=20, max_denominator=12),
            min_size=n, max_size=n,
        ),
        min_size=1, max_size=3,
    )),
    factor=st.integers(1, 6),
)
def test_property_unrelated_grid_is_the_input(times, factor):
    """``grid()`` of an ``R`` instance gives back the input rationals, with
    ``None`` at the forbidden pairs, whether it was built by the
    constructor or by ``from_ticks`` on an unreduced grid."""
    n = len(times[0])
    assume(all(any(row[j] is not None for row in times) for j in range(n)))
    graph = BipartiteGraph(n, [])
    big = factor * math.lcm(*(t.denominator for row in times for t in row if t is not None))
    ticks = [[None if t is None else int(t * big) for t in row] for row in times]
    expected = tuple(tuple(row) for row in times)
    for inst in (UnrelatedInstance(graph, times), UnrelatedInstance.from_ticks(graph, big, ticks)):
        assert grid_rationals(inst) == expected


class TestFromTicks:
    def test_reduces_to_the_minimal_scale(self):
        r = UnrelatedInstance.from_ticks(path_graph(3), 12, [[6, 0, None], [3, 9, 18]])
        assert (r.scale, r.ticks) == (4, ((2, 0, None), (1, 3, 6)))
        assert r.grid() == UnrelatedInstance(
            path_graph(3), [["1/2", 0, None], ["1/4", "3/4", "3/2"]]
        ).grid()

    @pytest.mark.parametrize(
        "ticks, message",
        [
            ([[1, 2]], r"^times\[0\] has 2 entries for 3 jobs$"),
            ([], "^need at least one machine$"),
            ([[1, -3, 2]], r"^times\[0\]\[1\] must be non-negative, got -3/4$"),
            ([[1, None, 2], [1, None, 2]], "^job 1 is forbidden on every machine$"),
        ],
    )
    def test_runs_the_constructors_checks(self, ticks, message):
        with pytest.raises(InvalidInstanceError, match=message):
            UnrelatedInstance.from_ticks(path_graph(3), 4, ticks)


class TestUnrelatedInstance:
    def test_basic(self):
        g = matching_graph(1)
        inst = UnrelatedInstance(g, [[1, 2], [3, 4]])
        assert inst.m == 2
        assert grid_rationals(inst)[1][0] == Fraction(3)
        assert inst.allows(0, 0)
        assert not hasattr(inst, "times")  # the grid is the only matrix

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
