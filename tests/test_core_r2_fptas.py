"""Tests for Algorithm 5 (Theorem 22: FPTAS for R2|G=bipartite|Cmax)."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.r2_fptas import r2_fptas
from repro.exceptions import InvalidInstanceError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import matching_graph, path_graph
from repro.scheduling.brute_force import brute_force_makespan
from repro.scheduling.instance import UnrelatedInstance

from tests.conftest import random_r2


class TestGuarantee:
    @pytest.mark.parametrize("eps", [1, Fraction(1, 2), Fraction(1, 5), Fraction(1, 25)])
    def test_one_plus_eps(self, eps):
        rng = np.random.default_rng(int(100 / Fraction(eps)))
        for _ in range(15):
            inst = random_r2(rng, max_side=4)
            s = r2_fptas(inst, eps=eps)
            assert s.is_feasible()
            opt = brute_force_makespan(inst)
            assert s.makespan <= (1 + Fraction(eps)) * opt

    def test_small_eps_is_practically_exact(self):
        rng = np.random.default_rng(80)
        exact_hits = 0
        for _ in range(15):
            inst = random_r2(rng, max_side=4, max_time=10)
            s = r2_fptas(inst, eps=Fraction(1, 1000))
            opt = brute_force_makespan(inst)
            exact_hits += s.makespan == opt
        assert exact_hits == 15  # at this eps the grid never merges states

    def test_monotone_quality_in_eps(self):
        rng = np.random.default_rng(81)
        inst = random_r2(rng, max_side=5)
        spans = [
            r2_fptas(inst, eps=e).makespan
            for e in (2, 1, Fraction(1, 4), Fraction(1, 64))
        ]
        # not strictly monotone in general, but the guarantee envelope is
        opt = brute_force_makespan(inst)
        for e, span in zip((2, 1, Fraction(1, 4), Fraction(1, 64)), spans):
            assert span <= (1 + Fraction(e)) * opt


class TestExact:
    @pytest.mark.parametrize("max_den", [1, 6])
    def test_eps_none_is_optimal(self, max_den):
        """``eps=None`` runs the DP untrimmed: the brute-force optimum."""
        rng = np.random.default_rng(83)
        for _ in range(15):
            inst = random_r2(rng, max_side=4, max_den=max_den)
            s = r2_fptas(inst, eps=None)
            assert s.is_feasible()
            assert s.makespan == brute_force_makespan(inst)


class TestSentinelFidelity:
    def test_sentinel_matches_forbidden_mode(self):
        """The paper's 2T sentinel and native pinning agree (eps < 1)."""
        rng = np.random.default_rng(82)
        for _ in range(15):
            inst = random_r2(rng, max_side=4)
            a = r2_fptas(inst, eps=Fraction(1, 3), use_sentinel_times=False)
            b = r2_fptas(inst, eps=Fraction(1, 3), use_sentinel_times=True)
            opt = brute_force_makespan(inst)
            assert a.makespan <= Fraction(4, 3) * opt
            assert b.makespan <= Fraction(4, 3) * opt


class TestEdgeCases:
    def test_empty_instance(self):
        inst = UnrelatedInstance(BipartiteGraph(0, []), [[], []])
        assert r2_fptas(inst).makespan == 0

    def test_single_job(self):
        inst = UnrelatedInstance(BipartiteGraph(1, []), [[5], [3]])
        s = r2_fptas(inst, eps=Fraction(1, 10))
        assert s.makespan == 3

    def test_bad_eps(self):
        inst = UnrelatedInstance(BipartiteGraph(1, []), [[1], [1]])
        with pytest.raises(InvalidInstanceError):
            r2_fptas(inst, eps=0)

    def test_connected_graph_two_choices_only(self):
        # a path forces per-side assignment; FPTAS must pick the better side
        g = path_graph(4)
        inst = UnrelatedInstance(g, [[1, 8, 1, 8], [8, 1, 8, 1]])
        s = r2_fptas(inst, eps=Fraction(1, 10))
        assert s.makespan == 2  # evens on M1, odds on M2

    def test_rational_times(self):
        g = matching_graph(1)
        inst = UnrelatedInstance(
            g, [[Fraction(1, 3), Fraction(5, 2)], [Fraction(5, 2), Fraction(1, 3)]]
        )
        s = r2_fptas(inst, eps=Fraction(1, 10))
        assert s.makespan == Fraction(1, 3)


class TestTheorem4Usage:
    def test_split_detection_instance(self):
        """The prepared instances of Theorem 4: FPTAS distinguishes exact
        splits, the property the O(n^3) algorithm relies on."""
        g = path_graph(4)  # parts {0,2} and {1,3}
        n = 4
        for n1 in range(1, n):
            n2 = n - n1
            times = [[n2] * n, [n1] * n]
            inst = UnrelatedInstance(g, times)
            s = r2_fptas(inst, eps=Fraction(1, n + 1))
            achieved = s.makespan == n1 * n2
            assert achieved == (n1 == 2)  # the path only splits 2-2
