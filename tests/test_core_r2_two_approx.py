"""Tests for Algorithm 4 (Theorem 21: 2-approximation for R2)."""

from fractions import Fraction

import numpy as np

from repro.core.r2_reduction import reduce_r2
from repro.core.r2_two_approx import r2_two_approx
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import complete_bipartite, matching_graph
from repro.scheduling.brute_force import brute_force_makespan
from repro.scheduling.instance import UnrelatedInstance

from tests.conftest import random_r2


class TestFeasibility:
    def test_always_feasible(self):
        rng = np.random.default_rng(70)
        for _ in range(30):
            s = r2_two_approx(random_r2(rng))
            assert s.is_feasible()

    def test_empty_instance(self):
        inst = UnrelatedInstance(BipartiteGraph(0, []), [[], []])
        assert r2_two_approx(inst).makespan == 0


class TestApproximationGuarantee:
    def test_within_two_of_optimum(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            inst = random_r2(rng, max_side=4)
            s = r2_two_approx(inst)
            opt = brute_force_makespan(inst)
            assert s.makespan <= 2 * opt, (s.makespan, opt)

    def test_proof_inequality(self):
        """Cmax <= max(T1, T2) + T_extra, the bound inside Theorem 21, on
        integer and on rational times."""
        rng = np.random.default_rng(72)
        for max_den in [1] * 20 + [6] * 20:
            inst = random_r2(rng, max_den=max_den)
            red = reduce_r2(inst)
            s = r2_two_approx(inst)
            t1, t2 = red.private_load_m1, red.private_load_m2
            t_extra = sum(min(rec.dummy_times) for rec in red.components)
            assert s.makespan <= Fraction(max(t1, t2) + t_extra, red.scale)

    def test_tightish_example(self):
        """A case where Algorithm 4 is a full factor ~2 away: two choice
        components whose cheap sides pile onto the same machine."""
        g = BipartiteGraph(2, [])  # two isolated jobs
        inst = UnrelatedInstance(g, [[10, 10], [11, 11]])
        s = r2_two_approx(inst)
        # both jobs prefer machine 1 -> makespan 20; optimum splits -> 11
        assert s.makespan == 20
        assert brute_force_makespan(inst) == 11


class TestDeterminism:
    def test_ties_to_machine_one(self):
        g = BipartiteGraph(1, [])
        inst = UnrelatedInstance(g, [[5], [5]])
        s = r2_two_approx(inst)
        assert s.assignment == (0,)

    def test_repeatable(self):
        rng = np.random.default_rng(73)
        inst = random_r2(rng)
        assert r2_two_approx(inst).assignment == r2_two_approx(inst).assignment


class TestStructuredComponents:
    def test_biclique_orientation(self):
        # K_{2,2}: machine 0 much faster for part 1, machine 1 for part 2
        g = complete_bipartite(2, 2)
        inst = UnrelatedInstance(g, [[1, 1, 50, 50], [50, 50, 1, 1]])
        s = r2_two_approx(inst)
        assert s.makespan == 2
        assert s.jobs_on(0) == [0, 1]

    def test_matching_components_independent_choices(self):
        g = matching_graph(2)
        # component 0 prefers straight, component 1 prefers flipped
        inst = UnrelatedInstance(
            g, [[1, 9, 9, 1], [9, 1, 1, 9]]
        )
        s = r2_two_approx(inst)
        assert s.makespan == 2
