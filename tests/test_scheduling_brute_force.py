"""Tests for the branch-and-bound exact solver."""

from fractions import Fraction

import numpy as np
import pytest

from repro.exceptions import BoundExcludedError, InfeasibleInstanceError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import complete_bipartite, matching_graph, path_graph
from repro.scheduling.brute_force import brute_force_makespan, brute_force_optimal
from repro.scheduling.instance import UniformInstance, UnrelatedInstance

from tests.conftest import random_uniform_instance


def exhaustive_makespan(instance) -> Fraction | None:
    """Plain enumeration ground truth (no pruning)."""
    import itertools

    best = None
    for assign in itertools.product(range(instance.m), repeat=instance.n):
        groups = {}
        ok = True
        for j, i in enumerate(assign):
            if not instance.allows(i, j):
                ok = False
                break
            groups.setdefault(i, []).append(j)
        if not ok:
            continue
        for i, jobs in groups.items():
            if not instance.graph.is_independent_set(jobs):
                ok = False
                break
        if not ok:
            continue
        span = max(
            (instance.machine_completion(i, jobs) for i, jobs in groups.items()),
            default=Fraction(0),
        )
        if best is None or span < best:
            best = span
    return best


class TestKnownOptima:
    def test_two_incompatible_jobs(self):
        inst = UniformInstance(matching_graph(1), [4, 4], [1, 1])
        assert brute_force_makespan(inst) == 4

    def test_speed_matters(self):
        inst = UniformInstance(matching_graph(1), [4, 4], [4, 1])
        # best: big job... both size 4; fast machine does one in 1, slow in 4
        assert brute_force_makespan(inst) == 4

    def test_k22_on_two_machines(self):
        inst = UniformInstance(complete_bipartite(2, 2), [1, 1, 1, 1], [1, 1])
        assert brute_force_makespan(inst) == 2

    def test_empty_instance(self):
        inst = UniformInstance(BipartiteGraph(0, []), [], [1])
        assert brute_force_makespan(inst) == 0

    def test_infeasible_raises(self):
        inst = UniformInstance(matching_graph(1), [1, 1], [1])
        with pytest.raises(InfeasibleInstanceError):
            brute_force_optimal(inst)

    def test_unrelated_with_forbidden(self):
        g = BipartiteGraph(2, [])
        inst = UnrelatedInstance(g, [[1, None], [5, 2]])
        assert brute_force_makespan(inst) == 2


class TestAgainstExhaustive:
    def test_uniform_instances(self):
        rng = np.random.default_rng(30)
        for _ in range(15):
            inst = random_uniform_instance(rng, max_jobs=6, max_machines=3)
            assert brute_force_makespan(inst) == exhaustive_makespan(inst)

    def test_unrelated_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            half = max(1, n // 2)
            edges = [
                (i, j)
                for i in range(half)
                for j in range(n - half)
                if rng.random() < 0.4
            ] if n - half > 0 else []
            g = BipartiteGraph.from_parts(half, n - half, edges) if n - half > 0 else BipartiteGraph(half, [])
            m = int(rng.integers(2, 4))
            times = [[int(x) for x in rng.integers(1, 10, g.n)] for _ in range(m)]
            inst = UnrelatedInstance(g, times)
            assert brute_force_makespan(inst) == exhaustive_makespan(inst)


class TestUpperBoundSeeding:
    def test_tight_bound_prunes_everything(self):
        inst = UniformInstance(matching_graph(1), [4, 4], [1, 1])
        with pytest.raises(InfeasibleInstanceError):
            brute_force_optimal(inst, upper_bound=Fraction(4))  # optimum not < 4

    def test_bound_excluded_is_distinguishable(self):
        """A seeded bound that excludes everything must NOT read as
        'instance infeasible' — the feasible optimum merely failed to
        beat the seed."""
        inst = UniformInstance(matching_graph(1), [4, 4], [1, 1])
        with pytest.raises(BoundExcludedError):
            brute_force_optimal(inst, upper_bound=Fraction(4))
        # a genuinely infeasible instance raises the plain error, never
        # the bound-excluded subclass
        single = UniformInstance(matching_graph(1), [4, 4], [1])
        with pytest.raises(InfeasibleInstanceError) as excinfo:
            brute_force_optimal(single)
        assert not isinstance(excinfo.value, BoundExcludedError)

    def test_loose_bound_keeps_optimum(self):
        inst = UniformInstance(matching_graph(1), [4, 4], [1, 1])
        s = brute_force_optimal(inst, upper_bound=Fraction(100))
        assert s.makespan == 4

    def test_symmetry_pruning_consistent(self):
        # many identical machines: symmetry dedup must not change the result
        inst = UniformInstance(path_graph(4), [3, 1, 4, 1], [1] * 4)
        assert brute_force_makespan(inst) == exhaustive_makespan(inst)
