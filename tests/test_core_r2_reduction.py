"""Tests for Algorithm 3 (component reduction on two unrelated machines)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.r2_reduction import ComponentCase, reduce_r2
from repro.exceptions import InvalidInstanceError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import complete_bipartite, matching_graph, path_graph
from repro.scheduling.instance import UnrelatedInstance
from repro.utils.rationals import time_grid

from tests.conftest import random_r2


class TestCaseAnalysis:
    def test_straight_dominates(self):
        # one edge; straight loads (1, 1), flipped (9, 9)
        g = matching_graph(1)
        inst = UnrelatedInstance(g, [[1, 9], [9, 1]])
        red = reduce_r2(inst)
        (rec,) = red.components
        assert rec.case is ComponentCase.STRAIGHT_DOMINATES
        assert rec.dummy_times == (0, 0)
        assert rec.base_loads == (1, 1)

    def test_flipped_dominates(self):
        g = matching_graph(1)
        inst = UnrelatedInstance(g, [[9, 1], [1, 9]])
        red = reduce_r2(inst)
        (rec,) = red.components
        assert rec.case is ComponentCase.FLIPPED_DOMINATES
        assert rec.base_loads == (1, 1)

    def test_choice_case_differences(self):
        # straight loads (5, 1), flipped (2, 4): neither dominates
        g = matching_graph(1)
        inst = UnrelatedInstance(g, [[5, 2], [4, 1]])
        red = reduce_r2(inst)
        (rec,) = red.components
        assert rec.case is ComponentCase.CHOICE
        assert rec.dummy_times == (3, 3)
        assert rec.base_loads == (2, 1)

    def test_singleton_component_is_free_choice(self):
        g = BipartiteGraph(1, [])
        inst = UnrelatedInstance(g, [[4], [7]])
        red = reduce_r2(inst)
        (rec,) = red.components
        assert rec.case is ComponentCase.CHOICE
        assert rec.dummy_times == (4, 7)
        assert rec.base_loads == (0, 0)

    def test_equal_loads_collapse_to_dominated(self):
        g = matching_graph(1)
        inst = UnrelatedInstance(g, [[3, 3], [3, 3]])
        red = reduce_r2(inst)
        (rec,) = red.components
        assert rec.case is not ComponentCase.CHOICE
        assert rec.dummy_times == (0, 0)


class TestReductionInvariants:
    def test_private_loads_sum_of_minima(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            inst = random_r2(rng)
            red = reduce_r2(inst)
            assert red.private_load_m1 == sum(
                (c.base_loads[0] for c in red.components), Fraction(0)
            )

    def test_orientation_expansion_feasible(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            inst = random_r2(rng)
            red = reduce_r2(inst)
            c = len(red.components)
            for trial in range(4):
                orientations = [int(x) for x in rng.integers(0, 2, c)]
                s = red.schedule_from_orientations(orientations)
                assert s.is_feasible()

    def test_expansion_makespan_matches_reduced_loads(self):
        """Loads of the expanded schedule = private loads + chosen extras,
        on integer and on rational times."""
        rng = np.random.default_rng(62)
        for max_den in [1] * 15 + [6] * 15:
            inst = random_r2(rng, max_den=max_den)
            red = reduce_r2(inst)
            orientations = [int(x) for x in rng.integers(0, 2, len(red.components))]
            s = red.schedule_from_orientations(orientations)
            expected = [0, 0]
            for rec, orient in zip(red.components, orientations):
                loads = rec.loads[orient]
                expected[0] += loads[0]
                expected[1] += loads[1]
            assert s.completion_times() == tuple(
                Fraction(ticks, red.scale) for ticks in expected
            )

    def test_dummy_assignment_reproduces_orientation_loads(self):
        """In the choice case, dummy on machine i gives machine i its max load."""
        rng = np.random.default_rng(63)
        for _ in range(20):
            inst = random_r2(rng)
            red = reduce_r2(inst)
            for rec in red.components:
                if rec.case is not ComponentCase.CHOICE:
                    continue
                for machine in (0, 1):
                    orient = rec.orientation_for_dummy(machine)
                    loads = rec.loads[orient]
                    # machine `machine` carries base + dummy
                    assert (
                        loads[machine]
                        == rec.base_loads[machine] + rec.dummy_times[machine]
                    )
                    assert loads[1 - machine] == rec.base_loads[1 - machine]

    def test_wrong_orientation_count_rejected(self):
        inst = UnrelatedInstance(matching_graph(2), [[1, 1, 1, 1], [1, 1, 1, 1]])
        red = reduce_r2(inst)
        with pytest.raises(InvalidInstanceError):
            red.schedule_from_orientations([0])

    def test_bad_orientation_value_rejected(self):
        inst = UnrelatedInstance(matching_graph(1), [[1, 1], [1, 1]])
        red = reduce_r2(inst)
        with pytest.raises(InvalidInstanceError):
            red.schedule_from_orientations([2])


@st.composite
def rational_r2(draw):
    """A small R2 instance on a random bipartite graph with rational times."""
    side = draw(st.lists(st.integers(0, 1), min_size=1, max_size=7))
    n = len(side)
    cross = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
    edges = draw(st.lists(st.sampled_from(cross), unique=True)) if cross else []
    time = st.fractions(min_value=0, max_value=12, max_denominator=6)
    times = [draw(st.lists(time, min_size=n, max_size=n)) for _ in range(2)]
    return UnrelatedInstance(BipartiteGraph(n, edges, side=side), times)


class TestDpRows:
    """Algorithm 5's reduced instance, built once by ``dp_rows``."""

    @given(inst=rational_r2(), sentinel=st.none() | st.integers(1, 60))
    @example(
        # two edges with every time 1/2: scale 2, and every entry is even
        inst=UnrelatedInstance(matching_graph(2), [[Fraction(1, 2)] * 4] * 2),
        sentinel=None,
    )
    @settings(max_examples=60, deadline=None)
    def test_dp_rows_are_time_grid_of_rows_in_time_units(self, inst, sentinel):
        red = reduce_r2(inst)

        def time_units(ticks):
            return None if ticks is None else Fraction(ticks, red.scale)

        rows = [
            [*(time_units(c.dummy_times[0]) for c in red.components),
             time_units(red.private_load_m1), time_units(sentinel)],
            [*(time_units(c.dummy_times[1]) for c in red.components),
             time_units(sentinel), time_units(red.private_load_m2)],
        ]
        assert red.dp_rows(sentinel) == time_grid(rows)[1]


class TestPreconditions:
    def test_requires_two_machines(self):
        g = matching_graph(1)
        inst = UnrelatedInstance(g, [[1, 1], [1, 1], [1, 1]])
        with pytest.raises(InvalidInstanceError):
            reduce_r2(inst)

    def test_rejects_forbidden_times(self):
        g = BipartiteGraph(2, [])
        inst = UnrelatedInstance(g, [[1, None], [1, 1]])
        with pytest.raises(InvalidInstanceError):
            reduce_r2(inst)

    def test_component_count(self):
        inst = UnrelatedInstance(path_graph(6), [[1] * 6, [1] * 6])
        assert len(reduce_r2(inst).components) == 1
        inst2 = UnrelatedInstance(matching_graph(3), [[1] * 6, [1] * 6])
        assert len(reduce_r2(inst2).components) == 3


class TestExactnessOfReduction:
    def test_best_orientation_equals_bruteforce_optimum(self):
        """Min over orientations == true optimum (schedules are per-part)."""
        from repro.scheduling.brute_force import brute_force_makespan

        rng = np.random.default_rng(64)
        for _ in range(12):
            inst = random_r2(rng, max_side=4)
            red = reduce_r2(inst)
            c = len(red.components)
            best = None
            import itertools

            for orient in itertools.product((0, 1), repeat=c):
                span = red.schedule_from_orientations(list(orient)).makespan
                best = span if best is None or span < best else best
            assert best == brute_force_makespan(inst)
