"""Tests for :mod:`repro.certify.oracle` — the pruned exact oracle."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certify import (
    certified_optimal,
    certified_optimal_makespan,
    certify_schedule,
)
from repro.certify.oracle import _SearchContext
from repro.exceptions import InfeasibleInstanceError, ReproError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.conflict import CompleteMultipartiteGraph
from repro.graphs.generators import (
    complete_bipartite,
    empty_graph,
    matching_graph,
    path_graph,
)
from repro.io.serialization import instance_from_dict
from repro.machines.profiles import geometric_speeds
from repro.random_graphs.gilbert import gnnp
from repro.scheduling.brute_force import brute_force_makespan
from repro.scheduling.instance import (
    UniformInstance,
    UnrelatedInstance,
    unit_uniform_instance,
)
from repro.utils.rationals import _to_grid, speed_grid

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

    def test_infeasible_triangle_on_two_machines(self):
        # a triangle of conflicts on two machines has no feasible schedule
        graph = CompleteMultipartiteGraph(3, [[0], [1], [2]])
        inst = UniformInstance(graph, [1, 1, 1], [Fraction(1), Fraction(1)])
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
            scale, grid = inst.grid()
            ticks = [list(row) for row in grid]
            # forbid each job on one machine, alternating; this may make
            # the instance genuinely infeasible (forced co-location of
            # conflicting jobs) — both solvers must then agree on that
            for j in range(inst.n):
                ticks[j % 2][j] = None
            pinned = UnrelatedInstance.from_ticks(inst.graph, scale, ticks)
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


class TestMaskedIsolatedUnits:
    """Isolated unit jobs under an eligibility mask are branched, not
    sent to the interchangeable tail (which ignores masks)."""

    @staticmethod
    def _check(inst, optimum):
        result = certified_optimal(inst)
        assert result.makespan == optimum == brute_force_makespan(inst)
        assert certify_schedule(result.schedule).ok

    def test_units_pinned_to_a_slow_machine(self):
        inst = UniformInstance(
            empty_graph(3), [1, 1, 1], [2, 1, 1], eligible=[[1], [1], [1]]
        )
        self._check(inst, 3)

    def test_edge_plus_units_pinned_to_one_machine(self):
        graph = BipartiteGraph(5, [(0, 1)])
        inst = UniformInstance(
            graph, [2, 2, 1, 1, 1], [1, 1], eligible=[None, None, [0], [0], [0]]
        )
        self._check(inst, 5)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_masked_instances_match_brute_force(self, data):
        n = data.draw(st.integers(2, 7), label="n")
        m = data.draw(st.integers(2, 3), label="m")
        side = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        pairs = [
            (u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]
        ]
        edges = data.draw(
            st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
        )
        p = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n), label="p")
        speeds = sorted(
            data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)), reverse=True
        )
        eligible = data.draw(
            st.lists(
                st.none() | st.frozensets(st.integers(0, m - 1), min_size=1),
                min_size=n,
                max_size=n,
            ),
            label="eligible",
        )
        graph = BipartiteGraph(n, edges, side=side)
        if not any(
            p[j] == 1
            and eligible[j] is not None
            and len(eligible[j]) < m
            and graph.degree(j) == 0
            for j in range(n)
        ):
            # the case under test: a masked isolated unit job
            j = data.draw(st.integers(0, n - 1), label="isolated")
            graph = BipartiteGraph(n, [e for e in edges if j not in e], side=side)
            p[j] = 1
            eligible[j] = frozenset({m - 1})
        inst = UniformInstance(graph, p, speeds, eligible=eligible)
        try:
            expected = brute_force_makespan(inst)
        except InfeasibleInstanceError:
            with pytest.raises(InfeasibleInstanceError):
                certified_optimal(inst)
            return
        result = certified_optimal(inst)
        assert result.makespan == expected
        assert certify_schedule(result.schedule).ok


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

#: rational times (denominators 2..6) and forbidden pairs, so the
#: unrelated search runs at a quantum above 1; recorded from the
#: rational-arithmetic search, whose tree the integer one must reproduce
PINNED_R_RATIONAL = [
    ("7/3", 25, "search-exhausted"), ("14/5", 8, "search-exhausted"),
    ("5", 16, "search-exhausted"), ("1/4", 0, "bound-tight"),
    ("5/2", 11, "search-exhausted"), ("9/4", 6, "search-exhausted"),
    ("28/15", 7, "search-exhausted"), ("43/15", 34, "search-exhausted"),
    ("14/3", 44, "search-exhausted"), ("21/10", 11, "search-exhausted"),
    ("61/15", 22, "search-exhausted"), ("22/5", 40, "search-exhausted"),
]

CORPUS = Path(__file__).resolve().parent / "fixtures" / "differential" / "corpus.jsonl"

#: (makespan, nodes, proof, sha256(assignment)[:16]) per frozen corpus
#: record with n <= 14 — the records cover eligibility masks, complete
#: multipartite and block graphs, and rational speeds
PINNED_CORPUS = {
    "uniform-bipartite-identical-unit-0": ("1", 0, "bound-tight", "237c6db5930ce4f6"),
    "uniform-bipartite-identical-unit-1": ("5/3", 0, "bound-tight", "15d8e0497bb4a0b2"),
    "uniform-bipartite-identical-mixed-2": ("23", 10, "search-exhausted", "2b785f5c6a14009e"),
    "uniform-bipartite-identical-mixed-3": ("22", 22, "search-exhausted", "3aaa9e0f346c4d35"),
    "uniform-bipartite-integer-unit-4": ("1/2", 0, "bound-tight", "2f230c18b1959e33"),
    "uniform-bipartite-integer-unit-5": ("1", 0, "bound-tight", "30fa1539e1ba06af"),
    "uniform-bipartite-integer-mixed-6": ("17/6", 36, "search-exhausted", "e0e14250caee9388"),
    "uniform-bipartite-integer-mixed-7": ("26/5", 257, "search-exhausted", "3fe14f1f4c7f8ff8"),
    "uniform-bipartite-rational-unit-8": ("24/7", 12, "search-exhausted", "e47419b31d104a12"),
    "uniform-bipartite-rational-unit-9": ("35/3", 26, "search-exhausted", "3aaa9e0f346c4d35"),
    "uniform-bipartite-rational-mixed-10": ("15", 36, "search-exhausted", "bd6403c782a3e536"),
    "uniform-bipartite-rational-mixed-11": ("24", 42, "search-exhausted", "b02529b7360c92f9"),
    "uniform-complete_multipartite-identical-unit-12": (
        "1", 10, "search-exhausted", "5721c2c24bdd046c"
    ),
    "uniform-complete_multipartite-identical-unit-13": ("2", 0, "bound-tight", "0627233b10365b7c"),
    "uniform-complete_multipartite-identical-mixed-14": (
        "11/3", 12, "search-exhausted", "fb4f5a5b96210a0e"
    ),
    "uniform-complete_multipartite-identical-mixed-15": (
        "13/2", 9, "search-exhausted", "30d40cfa554df85a"
    ),
    "uniform-complete_multipartite-integer-unit-16": (
        "1", 40, "search-exhausted", "3e1f4079380b2c5d"
    ),
    "uniform-complete_multipartite-integer-unit-17": ("4/5", 0, "bound-tight", "0d367ff477a433e7"),
    "uniform-complete_multipartite-integer-mixed-18": (
        "10/3", 15, "search-exhausted", "cef36640ecba403b"
    ),
    "uniform-complete_multipartite-integer-mixed-19": (
        "23/7", 1584, "search-exhausted", "1db6b68918f53748"
    ),
    "uniform-complete_multipartite-rational-unit-20": (
        "6", 16, "search-exhausted", "917e80dd08e927ae"
    ),
    "uniform-complete_multipartite-rational-unit-21": (
        "9/4", 45, "search-exhausted", "1cb13b92a3fbec6c"
    ),
    "uniform-complete_multipartite-rational-mixed-22": (
        "24/5", 5, "search-exhausted", "6c6832cb0261ae9b"
    ),
    "uniform-complete_multipartite-rational-mixed-23": (
        "38", 621, "search-exhausted", "ef90ac37a5a51e04"
    ),
    "uniform-block-identical-unit-24": ("2", 0, "bound-tight", "2cc4f618a41311f7"),
    "uniform-block-identical-unit-25": ("1", 14, "search-exhausted", "e7304475a6e96dba"),
    "uniform-block-identical-mixed-26": ("7/3", 9, "search-exhausted", "2b7c65030c151b1b"),
    "uniform-block-identical-mixed-27": ("11/2", 20, "search-exhausted", "b931e42b0640f0a7"),
    "uniform-block-integer-unit-28": ("1", 326, "search-exhausted", "f8dd5ff61f94270a"),
    "uniform-block-integer-unit-29": ("3/5", 127671, "search-exhausted", "323e6f313adfbfd9"),
    "uniform-block-integer-mixed-30": ("2", 44, "search-exhausted", "14640897b35af65f"),
    "uniform-block-integer-mixed-31": ("3/2", 282, "search-exhausted", "73e8b5089435ad5e"),
    "uniform-block-rational-unit-32": ("3", 52, "search-exhausted", "657d639e4c3ffb57"),
    "uniform-block-rational-unit-33": ("4/3", 0, "bound-tight", "04372b62b9d54787"),
    "uniform-block-rational-mixed-34": ("4", 13, "search-exhausted", "55aaf9c18888e1d8"),
    "uniform-block-rational-mixed-35": ("14", 14124, "search-exhausted", "059b115db287710e"),
    "eligible-bipartite-0": ("4/3", 0, "bound-tight", "f86cd69a96a2e9c6"),
    "eligible-complete_multipartite-1": ("15/2", 170, "search-exhausted", "460d6628b7c74eef"),
    "eligible-block-2": ("2", 17, "search-exhausted", "0ae9dee8a99c38be"),
    "eligible-bipartite-3": ("16/3", 0, "bound-tight", "366047d7f0e384d7"),
    "eligible-complete_multipartite-4": ("4/5", 58, "search-exhausted", "39c013b881174509"),
    "eligible-block-5": ("14/3", 527, "search-exhausted", "2ab84502d8b6b48c"),
    "eligible-bipartite-6": ("4/3", 0, "bound-tight", "e0858721c4c5d16f"),
    "eligible-complete_multipartite-7": ("9/2", 13, "search-exhausted", "f9e7e14b91948b72"),
    "unrelated-bipartite-m2-0": ("25", 22, "search-exhausted", "f919733d549a9e33"),
    "unrelated-complete_multipartite-m3-1": ("20", 51, "search-exhausted", "0b6c287f61e52ccd"),
    "unrelated-block-m5-2": ("6", 38, "search-exhausted", "f07bacd4aecdb61e"),
    "unrelated-bipartite-m3-3": ("13", 61, "search-exhausted", "6401c9e0218b1c7a"),
    "unrelated-complete_multipartite-m2-4": ("25", 18, "search-exhausted", "ac8090ab6703d104"),
    "unrelated-block-m4-5": ("11", 39, "search-exhausted", "edcae4c5dbb3dc17"),
    "unrelated-bipartite-m2-6": ("22", 10, "search-exhausted", "f919733d549a9e33"),
    "unrelated-complete_multipartite-m3-7": ("20", 44, "search-exhausted", "c3359d0f6debe138"),
    "runheavy-single-group-sizes1-0": ("14", 0, "bound-tight", "7124e93b8627bf56"),
    "runheavy-two-group-sizes1-3": ("6", 19, "search-exhausted", "d901785b82e09cd1"),
    "runheavy-three-group-sizes1-6": ("6", 0, "bound-tight", "e22dc1e1fc1db647"),
    "runheavy-wide-single-sizes1-9": ("1/3", 0, "bound-tight", "cec12cd9805ee1c8"),
}


class TestPinnedSearch:
    """The search tree is pinned, not just the optimum."""

    @staticmethod
    def _outcome(inst):
        result = certified_optimal(inst)
        return (str(result.makespan), result.nodes, result.proof)

    def test_uniform_searches_match_recorded_values(self, rng):
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

    def test_rational_unrelated_searches_match_recorded_values(self, rng):
        got = []
        for _ in range(len(PINNED_R_RATIONAL)):
            g = random_bipartite(rng, max_side=4)
            # machine side[j] always stays allowed, so every draw is feasible
            times = [
                [
                    None
                    if i != g.side[j] and rng.random() < 0.25
                    else Fraction(int(rng.integers(1, 15)), int(rng.integers(2, 7)))
                    for j in range(g.n)
                ]
                for i in range(3)
            ]
            inst = UnrelatedInstance(g, times)
            assert inst.grid()[0] > 1
            got.append(self._outcome(inst))
            assert Fraction(got[-1][0]) == brute_force_makespan(inst)
        assert got == PINNED_R_RATIONAL
        assert sum(nodes for _, nodes, _ in got) == 224

    def test_corpus_searches_match_recorded_values(self):
        got = {}
        with CORPUS.open(encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                inst = instance_from_dict(record["instance"])
                if inst.n > 14:
                    continue
                result = certified_optimal(inst)
                certificate = certify_schedule(result.schedule)
                assert certificate.ok, f"{record['id']}: {certificate.describe()}"
                digest = hashlib.sha256(
                    json.dumps(list(result.schedule.assignment)).encode()
                ).hexdigest()[:16]
                got[record["id"]] = (
                    str(result.makespan), result.nodes, result.proof, digest
                )
        assert got == PINNED_CORPUS
        assert sum(nodes for _, nodes, _, _ in got.values()) == 146440


class TestIntegerScale:
    """The search runs on integers scaled by the quantum, exactly."""

    def test_quantum_round_trips_the_optimum(self):
        graph = gnnp(7, 0.3, seed=9)
        p = [int(x) for x in np.random.default_rng(17).integers(1, 9, graph.n)]
        inst = UniformInstance(graph, p, geometric_speeds(3, 2))
        quantum, _ = inst.grid()
        assert quantum == speed_grid(inst.speeds)[0] == _SearchContext(inst).quantum
        result = certified_optimal(inst)
        assert Fraction(_to_grid(result.makespan, quantum), quantum) == result.makespan
        # a value off the exact grid is refused, not rounded
        with pytest.raises(ReproError):
            _to_grid(Fraction(1, quantum + 1), quantum)

    def test_workers_other_than_one_raise(self):
        inst = UniformInstance(matching_graph(1), [4, 4], [1, 1])
        assert certified_optimal(inst, workers=1).makespan == 4
        for workers in (0, 2):
            with pytest.raises(ValueError):
                certified_optimal(inst, workers=workers)


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
