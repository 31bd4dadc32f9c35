"""Tests for :mod:`repro.certify.oracle` — the pruned exact oracle."""

from fractions import Fraction

import numpy as np
import pytest

from repro.certify import certified_optimal, certified_optimal_makespan
from repro.exceptions import InfeasibleInstanceError
from repro.graphs.generators import (
    complete_bipartite,
    matching_graph,
    path_graph,
)
from repro.random_graphs.gilbert import gnnp
from repro.scheduling.brute_force import brute_force_makespan
from repro.scheduling.instance import (
    UniformInstance,
    UnrelatedInstance,
    unit_uniform_instance,
)

from tests.conftest import random_bipartite, random_r2, random_uniform_instance

F = Fraction


class TestKnownOptima:
    def test_two_incompatible_jobs(self):
        inst = UniformInstance(matching_graph(1), [4, 4], [1, 1])
        assert certified_optimal_makespan(inst) == 4

    def test_k22_on_two_machines(self):
        inst = UniformInstance(complete_bipartite(2, 2), [1, 1, 1, 1], [1, 1])
        assert certified_optimal_makespan(inst) == 2

    def test_empty_instance(self):
        from repro.graphs.generators import empty_graph

        inst = UniformInstance(empty_graph(0), [], [1])
        result = certified_optimal(inst)
        assert result.makespan == 0 and result.proof == "bound-tight"

    def test_infeasible_single_machine(self):
        inst = UniformInstance(matching_graph(1), [1, 1], [1])
        with pytest.raises(InfeasibleInstanceError):
            certified_optimal(inst)


class TestMatchesBruteForce:
    """Acceptance: the oracle provably matches brute force at small n."""

    def test_random_uniform_instances(self, rng):
        for _ in range(40):
            inst = random_uniform_instance(rng)
            assert inst.n <= 12
            assert certified_optimal_makespan(inst) == brute_force_makespan(inst)

    def test_random_unrelated_instances(self, rng):
        for _ in range(20):
            inst = random_r2(rng)
            assert certified_optimal_makespan(inst) == brute_force_makespan(inst)

    def test_unrelated_with_forbidden_pairs(self, rng):
        for _ in range(10):
            inst = random_r2(rng)
            times = [list(row) for row in inst.times]
            # forbid each job on one machine, alternating; this may make
            # the instance genuinely infeasible (forced co-location of
            # conflicting jobs) — both solvers must then agree on that
            for j in range(inst.n):
                times[j % 2][j] = None
            pinned = UnrelatedInstance(inst.graph, times)
            try:
                naive = brute_force_makespan(pinned)
            except InfeasibleInstanceError:
                with pytest.raises(InfeasibleInstanceError):
                    certified_optimal(pinned)
                continue
            assert certified_optimal_makespan(pinned) == naive


class TestProofMetadata:
    def test_bound_tight_fast_path(self):
        # unit jobs on a path: dispatch is exact here and meets the
        # capacity bound, so no nodes should be explored
        inst = unit_uniform_instance(path_graph(6), [1, 1, 1])
        result = certified_optimal(inst)
        assert result.proof == "bound-tight"
        assert result.nodes == 0
        assert result.seeded_from is not None
        assert result.makespan == result.lower_bound

    def test_search_proof_reports_nodes(self):
        inst = UniformInstance(matching_graph(2), [5, 3, 4, 2], [3, 1])
        result = certified_optimal(inst)
        assert result.proof in ("bound-tight", "search-exhausted")
        assert result.makespan == brute_force_makespan(inst)

    def test_optimal_alias(self):
        inst = UniformInstance(path_graph(3), [2, 1, 2], [1, 1])
        result = certified_optimal(inst)
        assert result.optimal == result.makespan


#: (makespan, nodes, proof) of the seeded searches below, recorded from
#: the memoized search; any change to branch order, pruning or the
#: per-node bound shows up here as a different node count
PINNED_Q = [
    ("13/4", 9, "search-exhausted"), ("5", 11, "search-exhausted"),
    ("3", 0, "bound-tight"), ("3", 11, "search-exhausted"),
    ("4", 44, "search-exhausted"), ("5", 22, "search-exhausted"),
    ("17/4", 19, "search-exhausted"), ("4", 32, "search-exhausted"),
    ("4", 15, "search-exhausted"), ("7/4", 0, "bound-tight"),
    ("17/4", 17, "search-exhausted"), ("7/2", 9, "search-exhausted"),
    ("2", 0, "bound-tight"), ("13/4", 0, "bound-tight"),
    ("7/2", 10, "search-exhausted"), ("2", 6, "search-exhausted"),
    ("4", 11, "search-exhausted"), ("4", 18, "search-exhausted"),
    ("19/4", 14, "search-exhausted"), ("3", 2, "search-exhausted"),
]
PINNED_R = [
    ("13", 11, "search-exhausted"), ("4", 0, "bound-tight"),
    ("8", 20, "search-exhausted"), ("11", 12, "search-exhausted"),
    ("9", 9, "search-exhausted"), ("12", 12, "search-exhausted"),
    ("6", 5, "search-exhausted"), ("11", 10, "search-exhausted"),
    ("3", 0, "bound-tight"), ("7", 6, "search-exhausted"),
    ("8", 12, "search-exhausted"), ("15", 26, "search-exhausted"),
]


class TestPinnedSearch:
    """The search tree is pinned, not just the optimum."""

    @staticmethod
    def _outcome(inst):
        result = certified_optimal(inst)
        return (str(result.makespan), result.nodes, result.proof)

    def test_uniform_searches_match_recorded_values(self, rng):
        from repro.machines.profiles import geometric_speeds

        got = []
        for _ in range(len(PINNED_Q)):
            g = random_bipartite(rng, max_side=5)
            p = [int(x) for x in rng.integers(1, 8, g.n)]
            got.append(self._outcome(UniformInstance(g, p, geometric_speeds(3, 2))))
        assert got == PINNED_Q
        assert sum(nodes for _, nodes, _ in got) == 250

    def test_unrelated_searches_match_recorded_values(self, rng):
        got = []
        for _ in range(len(PINNED_R)):
            g = random_bipartite(rng, max_side=4)
            times = [[int(x) for x in rng.integers(1, 15, g.n)] for _ in range(3)]
            got.append(self._outcome(UnrelatedInstance(g, times)))
        assert got == PINNED_R
        assert sum(nodes for _, nodes, _ in got) == 123


class TestScaleTarget:
    """Acceptance: n = 30 uniform unit-job bipartite in well under a minute."""

    @pytest.mark.parametrize("seed,p,speeds", [
        (3, 0.2, [3, 2, 2, 1]),
        (7, 0.35, [1, 1, 1, 1]),
        (11, 0.15, [5, 3, 1]),
    ])
    def test_n30_unit_bipartite(self, seed, p, speeds):
        import time

        graph = gnnp(15, p, seed=seed)  # 30 vertices
        inst = unit_uniform_instance(graph, speeds)
        start = time.perf_counter()
        result = certified_optimal(inst)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        assert result.schedule.is_feasible()
        assert result.lower_bound is not None
        assert result.makespan >= result.lower_bound
