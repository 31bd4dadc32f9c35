"""Tests for weighted minimum vertex covers."""

import random

import numpy as np
import pytest

from repro.graphs import vertex_cover
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import complete_bipartite, path_graph, star
from repro.graphs.matching import maximum_matching_size
from repro.graphs.vertex_cover import is_vertex_cover, min_weight_vertex_cover

from tests.conftest import random_bipartite


def brute_min_cover_weight(g: BipartiteGraph, weights) -> int:
    best = sum(weights)
    for mask in range(1 << g.n):
        cover = [v for v in range(g.n) if (mask >> v) & 1]
        if is_vertex_cover(g, cover):
            best = min(best, sum(weights[v] for v in cover))
    return best


class TestWeightedCover:
    def test_unit_weights_match_konig_size(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_bipartite(rng, max_side=6)
            cover = min_weight_vertex_cover(g, [1] * g.n)
            assert is_vertex_cover(g, cover)
            assert len(cover) == maximum_matching_size(g)

    def test_weighted_optimality_vs_bruteforce(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            g = random_bipartite(rng, max_side=5)
            weights = [int(x) for x in rng.integers(1, 12, g.n)]
            cover = min_weight_vertex_cover(g, weights)
            assert is_vertex_cover(g, cover)
            assert sum(weights[v] for v in cover) == brute_min_cover_weight(g, weights)

    def test_prefers_light_side(self):
        # star with heavy centre: cover with all leaves instead
        g = star(3)
        cover = min_weight_vertex_cover(g, [100, 1, 1, 1])
        assert cover == {1, 2, 3}

    def test_rejects_bad_weights(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            min_weight_vertex_cover(g, [1, 1])
        with pytest.raises(ValueError):
            min_weight_vertex_cover(g, [1, 0, 1])

    def test_empty_graph(self):
        assert min_weight_vertex_cover(BipartiteGraph(0, []), []) == set()

    def test_complete_bipartite_takes_smaller_side(self):
        g = complete_bipartite(2, 6)
        cover = min_weight_vertex_cover(g, [1] * 8)
        assert cover == {0, 1}

    def test_weights_past_two_to_the_sixty(self):
        """Free weights summing past ``flow.INF`` used to cut the edge
        arc: the "cover" came back empty."""
        g = BipartiteGraph.from_parts(1, 1, [(0, 0)])
        cover = min_weight_vertex_cover(g, [2**61, 2**61])
        assert is_vertex_cover(g, cover) and len(cover) == 1

    def test_induced_subgraph_by_vertex_list(self):
        g = path_graph(5)
        assert min_weight_vertex_cover(g, [1, 9, 1, 9, 1], [0, 1, 2]) == {0, 2}
        assert min_weight_vertex_cover(g, [1, 9, 1, 9, 1], [3, 4]) == {4}
        with pytest.raises(ValueError):
            min_weight_vertex_cover(g, [1] * 5, [5])



class TestPushRelabelPasses:
    """Step 2's flow on shuffled long paths and even cycles, where a
    phase-based max flow (Dinic) needs one pass per augmenting-path length.

    The count of global relabellings (each one breadth-first search of
    the residual graph) is pinned at about 1.5 times the count measured
    for the FIFO push–relabel flow, so a change that brings back work
    per path length fails here; the cover is the lighter side in every
    case.
    """

    @staticmethod
    def shuffled_chain(n: int, rising: bool, cycle: bool):
        order = list(range(n))
        random.Random(0).shuffle(order)
        edges = [(order[i], order[i + 1]) for i in range(n - 1)]
        if cycle:
            edges.append((order[-1], order[0]))
        side = [0] * n
        weights = [0] * n
        for i, v in enumerate(order):
            side[v] = i % 2
            weights[v] = i + 1 if rising else n - i
        return BipartiteGraph(n, edges, side=side), weights

    @pytest.mark.parametrize(
        "n, rising, cycle, bound",
        [
            (4001, True, False, 138),  # measured: 92
            (4001, False, False, 138),  # measured: 92
            (4000, True, True, 0),  # the greedy pass routes the whole flow
            (4000, False, True, 138),  # measured: 92
        ],
    )
    def test_global_relabellings_stay_bounded(self, monkeypatch, n, rising, cycle, bound):
        graph, weights = self.shuffled_chain(n, rising, cycle)
        calls = []
        relabel = vertex_cover._global_relabel

        def counted(*args):
            calls.append(1)
            return relabel(*args)

        monkeypatch.setattr(vertex_cover, "_global_relabel", counted)
        cover = min_weight_vertex_cover(graph, weights)
        assert len(calls) <= bound
        sides = [{v for v in range(n) if graph.side[v] == s} for s in (0, 1)]
        assert cover == min(sides, key=lambda part: sum(weights[v] for v in part))


class TestIsVertexCover:
    def test_detects_uncovered_edge(self):
        g = path_graph(3)
        assert not is_vertex_cover(g, [0])
        assert is_vertex_cover(g, [1])

    def test_full_vertex_set_always_covers(self):
        g = complete_bipartite(3, 3)
        assert is_vertex_cover(g, range(6))
