"""Tests for :func:`repro.scheduling.baselines.r_color_split`."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.exceptions import InfeasibleInstanceError
from repro.graphs import generators
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.coloring import inequitable_two_coloring
from repro.random_graphs.gilbert import gnnp
from repro.scheduling.baselines import r_color_split
from repro.scheduling.brute_force import brute_force_makespan
from repro.scheduling.instance import UnrelatedInstance

F = Fraction


class TestRColorSplit:
    def test_zero_jobs(self):
        inst = UnrelatedInstance(generators.empty_graph(0), [[], []])
        assert r_color_split(inst).makespan == 0

    def test_picks_best_pair(self):
        # machine 0 fast for class 1, machine 2 fast for class 2
        graph = generators.complete_bipartite(2, 2)
        inst = UnrelatedInstance(
            graph,
            [[1, 1, 50, 50], [20, 20, 20, 20], [50, 50, 1, 1]],
        )
        schedule = r_color_split(inst)
        assert schedule.is_feasible()
        assert schedule.makespan == 2

    def test_single_class_on_best_machine(self):
        graph = generators.empty_graph(3)
        inst = UnrelatedInstance(graph, [[5, 5, 5], [1, 1, 1]])
        schedule = r_color_split(inst)
        assert schedule.makespan == 3  # all three on machine 1

    def test_respects_forbidden(self):
        graph = generators.complete_bipartite(1, 1)
        inst = UnrelatedInstance(graph, [[None, 2], [3, None]])
        schedule = r_color_split(inst)
        assert schedule.is_feasible()
        assert schedule.assignment == (1, 0)

    def test_infeasible_when_everything_forbidden(self):
        graph = generators.complete_bipartite(1, 1)
        # class 1 = job 0 only allowed on machine 0; class 2 = job 1 only
        # allowed on machine 0 too -> no pair works
        inst = UnrelatedInstance(graph, [[1, 1], [None, None]])
        with pytest.raises(InfeasibleInstanceError):
            r_color_split(inst)

    def test_three_machines_all_usable(self):
        graph = generators.matching_graph(3)
        rng = np.random.default_rng(5)
        times = rng.integers(1, 9, size=(3, 6)).tolist()
        schedule = r_color_split(UnrelatedInstance(graph, times))
        assert schedule.is_feasible()


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(1, 3),
    m=st.integers(2, 4),
    seed=st.integers(0, 5000),
)
def test_property_feasible_and_bounded(k, m, seed):
    """The split is always feasible and never worse than putting each
    class on the single overall-best machine pair found by brute force."""
    graph = generators.matching_graph(k)
    rng = np.random.default_rng(seed)
    times = rng.integers(1, 10, size=(m, 2 * k)).tolist()
    inst = UnrelatedInstance(graph, times)
    schedule = r_color_split(inst)
    assert schedule.is_feasible()
    assert schedule.makespan >= brute_force_makespan(inst)


def _fraction_reference(instance):
    """``r_color_split``'s choice recomputed on the Fraction times:
    ``(makespan, machine of class 1, machine of class 2)`` or ``None``."""
    class1, class2 = inequitable_two_coloring(instance.graph)
    loads = [
        [
            None if any(instance.times[i][j] is None for j in cls)
            else sum((instance.times[i][j] for j in cls), F(0))
            for cls in (class1, class2)
        ]
        for i in range(instance.m)
    ]
    best = None
    if not class1 or not class2:
        c = 0 if class1 else 1
        for i in range(instance.m):
            if loads[i][c] is not None and (best is None or loads[i][c] < best[0]):
                best = (loads[i][c], i, i)
        return best
    for i1 in range(instance.m):
        for i2 in range(instance.m):
            if i1 == i2 or loads[i1][0] is None or loads[i2][1] is None:
                continue
            span = max(loads[i1][0], loads[i2][1])
            if best is None or span < best[0]:
                best = (span, i1, i2)
    return best


@settings(max_examples=80, deadline=None)
@given(
    half=st.integers(0, 5),
    m=st.integers(1, 5),
    seed=st.integers(0, 10**6),
    forbid=st.floats(0.0, 0.3),
)
def test_matches_the_fraction_reference(half, m, seed, forbid):
    """Tick sums pick the same machine pair and makespan as Fraction sums."""
    rng = np.random.default_rng(seed)
    graph = gnnp(half, 0.4, seed=seed) if half else generators.empty_graph(3)
    times = [
        [
            None if rng.random() < forbid
            else F(int(rng.integers(0, 40)), int(rng.integers(1, 7)))
            for _ in range(graph.n)
        ]
        for _ in range(m)
    ]
    for j in range(graph.n):  # every job allowed somewhere
        if all(row[j] is None for row in times):
            times[0][j] = F(1)
    inst = UnrelatedInstance(graph, times)
    reference = _fraction_reference(inst)
    if reference is None:
        with pytest.raises(InfeasibleInstanceError):
            r_color_split(inst)
        return
    makespan, i1, i2 = reference
    schedule = r_color_split(inst)
    class2 = set(inequitable_two_coloring(inst.graph)[1])
    assert schedule.assignment == tuple(i2 if j in class2 else i1 for j in range(graph.n))
    assert schedule.makespan == makespan
