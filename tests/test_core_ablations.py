"""Tests for :mod:`repro.core.ablations` — Algorithm 1 design-choice knobs."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.core.ablations import (
    ABLATION_VARIANTS,
    greedy_independent_set_containing,
    sqrt_approx_ablation,
)
from repro.core.sqrt_approx import (
    _capacity_schedule,
    _two_fastest_schedule,
    sqrt_approx_schedule,
)
from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.graphs import generators
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.coloring import inequitable_two_coloring, proper_two_coloring
from repro.graphs.independent_set import max_weight_independent_set_containing
from repro.random_graphs.gilbert import gnnp
from repro.scheduling.instance import UniformInstance

F = Fraction


def _instance(seed=0, n_side=8, m=4):
    rng = np.random.default_rng(seed)
    graph = gnnp(n_side, 1.5 / n_side, seed=rng)
    p = [int(x) for x in rng.integers(1, 9, size=graph.n)]
    speeds = sorted(
        (F(int(x)) for x in rng.integers(1, 6, size=m)), reverse=True
    )
    return UniformInstance(graph, p, speeds)


class TestGreedyIndependentSet:
    def test_contains_required(self):
        g = generators.crown(3)
        out = greedy_independent_set_containing(g, [1] * 6, [0])
        assert 0 in out
        assert g.is_independent_set(out)

    def test_none_when_required_conflicts(self):
        g = generators.complete_bipartite(2, 2)
        assert greedy_independent_set_containing(g, [1] * 4, [0, 2]) is None

    def test_never_heavier_than_exact(self):
        for seed in range(8):
            g = gnnp(6, 0.3, seed=seed)
            weights = list(np.random.default_rng(seed).integers(1, 9, size=g.n))
            greedy = greedy_independent_set_containing(g, weights, [])
            exact = max_weight_independent_set_containing(g, weights, [])
            assert sum(weights[v] for v in greedy) <= sum(
                weights[v] for v in exact
            )

    def test_empty_required_on_empty_graph(self):
        g = generators.empty_graph(4)
        out = greedy_independent_set_containing(g, [2, 2, 2, 2], [])
        assert out == {0, 1, 2, 3}


class TestVariants:
    def test_unknown_variant_rejected(self):
        with pytest.raises(InvalidInstanceError, match="unknown variant"):
            sqrt_approx_ablation(_instance(), "nonsense")

    def test_all_variants_feasible(self):
        inst = _instance(seed=1)
        for variant in ABLATION_VARIANTS:
            schedule = sqrt_approx_ablation(inst, variant)
            assert schedule.is_feasible(), variant

    def test_paper_variant_matches_algorithm1(self):
        for seed in range(5):
            inst = _instance(seed=seed)
            ablation = sqrt_approx_ablation(inst, "paper")
            reference = sqrt_approx_schedule(inst).schedule
            assert ablation.assignment == reference.assignment
            assert ablation.makespan == reference.makespan

    def test_s1_only_matches_s1(self):
        inst = _instance(seed=2)
        s1_only = sqrt_approx_ablation(inst, "s1_only")
        # Algorithm 1 may skip S1, so build it directly
        reference = _two_fastest_schedule(inst, "fptas")
        assert s1_only.assignment == reference.assignment

    def test_min_never_worse_than_either_branch(self):
        for seed in range(5):
            inst = _instance(seed=seed)
            paper = sqrt_approx_ablation(inst, "paper")
            s1_only = sqrt_approx_ablation(inst, "s1_only")
            s2_pref = sqrt_approx_ablation(inst, "s2_preferred")
            assert paper.makespan <= s1_only.makespan
            assert paper.makespan <= s2_pref.makespan

    def test_single_machine_with_edges_raises(self):
        inst = UniformInstance(BipartiteGraph(2, [(0, 1)]), [3, 3], [F(1)])
        with pytest.raises(InfeasibleInstanceError):
            sqrt_approx_ablation(inst, "paper")

    def test_zero_jobs(self):
        inst = UniformInstance(generators.empty_graph(0), [], [F(1), F(1)])
        assert sqrt_approx_ablation(inst, "greedy_mis").makespan == 0

    def test_tiny_instances_exact_in_all_variants(self):
        inst = UniformInstance(BipartiteGraph(2, [(0, 1)]), [2, 2], [F(1), F(1)])
        for variant in ABLATION_VARIANTS:
            assert sqrt_approx_ablation(inst, variant).makespan == 2


class TestEntryChecks:
    """Every variant answers or refuses what Algorithm 1 settles before
    step 2 exactly as Algorithm 1 does: the knobs vary no step there."""

    @pytest.mark.parametrize(
        "inst",
        [
            UniformInstance(generators.empty_graph(0), [], [F(2), F(1)]),
            UniformInstance(generators.empty_graph(3), [9, 8, 7], [F(2)]),
            UniformInstance(
                generators.path_graph(4), [5, 4, 3, 2], [F(3), F(2), F(1)]
            ),
        ],
        ids=["no-jobs", "one-machine", "total-at-most-16"],
    )
    def test_base_cases_return_algorithm1s_schedule(self, inst):
        reference = sqrt_approx_schedule(inst).schedule
        for variant in ABLATION_VARIANTS:
            schedule = sqrt_approx_ablation(inst, variant)
            assert schedule.assignment == reference.assignment, variant

    @pytest.mark.parametrize(
        "inst, error",
        [
            (
                UniformInstance(
                    BipartiteGraph(4, [(0, 1)]),
                    [9, 9, 1, 1],
                    [F(2), F(1), F(1)],
                    eligible=[[0, 1], None, None, None],
                ),
                InvalidInstanceError,
            ),
            (
                UniformInstance(BipartiteGraph(3, [(0, 1)]), [9, 9, 1], [F(1)]),
                InfeasibleInstanceError,
            ),
        ],
        ids=["eligibility-mask", "one-machine-with-edge"],
    )
    def test_refusals_match_algorithm1(self, inst, error):
        with pytest.raises(error) as expected:
            sqrt_approx_schedule(inst)
        for variant in ABLATION_VARIANTS:
            with pytest.raises(error) as got:
                sqrt_approx_ablation(inst, variant)
            assert str(got.value) == str(expected.value), variant


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2000),
    n_side=st.integers(3, 10),
    m=st.integers(2, 5),
)
def test_property_every_variant_is_feasible(seed, n_side, m):
    inst = _instance(seed=seed, n_side=n_side, m=m)
    for variant in ABLATION_VARIANTS:
        schedule = sqrt_approx_ablation(inst, variant)
        assert schedule.is_feasible()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2000),
    n_side=st.integers(2, 9),
    m=st.integers(3, 6),
)
def test_property_any_colouring_leaves_machines_for_the_second_class(
    seed, n_side, m
):
    """Steps 5-10 need no ``k' = k - 1`` guard: whichever proper colouring
    of ``J \\ I`` is passed, heavier class first or not, ``J'_2`` gets
    machines of its own (``M_{k'+1}..M_k``), apart from ``J'_1``'s and
    from ``M_1``, which holds ``I``."""
    rng = np.random.default_rng(seed)
    graph = gnnp(n_side, 2.0 / n_side, seed=rng)
    p = [int(x) for x in rng.integers(1, 30, size=graph.n)]
    speeds = sorted((F(int(x)) for x in rng.integers(1, 9, size=m)), reverse=True)
    inst = UniformInstance(graph, p, speeds)
    heavy = [j for j in range(inst.n) if p[j] * p[j] >= inst.total_p]
    independent = max_weight_independent_set_containing(graph, p, heavy)
    if independent is None:
        return
    rest = [j for j in range(inst.n) if j not in independent]
    sub, ids = graph.induced_subgraph(rest)
    colors = proper_two_coloring(sub)
    proper = tuple(
        [ids[v] for v in range(sub.n) if colors[v] == c] for c in (0, 1)
    )
    inequitable = inequitable_two_coloring(graph, p, rest)
    for class1, class2 in (
        proper,
        proper[::-1],
        inequitable,
        inequitable[::-1],
    ):
        s2, _ = _capacity_schedule(inst, set(independent), lambda _: (class1, class2))
        assert s2.is_feasible()
        on1 = {s2.assignment[j] for j in class1}
        on2 = {s2.assignment[j] for j in class2}
        assert not on2 & on1
        assert 0 not in on1 | on2
        assert all(s2.assignment[j] not in on1 | on2 for j in independent)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2000))
def test_property_paper_dominates_ablations_or_ties_often(seed):
    """The control never loses to s1_only (it takes a min including S1)."""
    inst = _instance(seed=seed, n_side=7, m=4)
    paper = sqrt_approx_ablation(inst, "paper")
    s1_only = sqrt_approx_ablation(inst, "s1_only")
    assert paper.makespan <= s1_only.makespan
