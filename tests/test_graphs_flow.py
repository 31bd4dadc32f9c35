"""Tests for the Dinic max-flow / min-cut engine."""

import numpy as np
import pytest

from tests.flow_reference import FlowNetwork, INF, max_flow_min_cut


class TestBasics:
    def test_single_edge(self):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 5)
        assert net.max_flow(0, 1) == 5

    def test_series_bottleneck(self):
        net = FlowNetwork(3)
        net.add_edge(0, 1, 5)
        net.add_edge(1, 2, 3)
        assert net.max_flow(0, 2) == 3

    def test_parallel_paths(self):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 2)
        net.add_edge(1, 3, 2)
        net.add_edge(0, 2, 3)
        net.add_edge(2, 3, 3)
        assert net.max_flow(0, 3) == 5

    def test_disconnected_is_zero(self):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 7)
        net.add_edge(2, 3, 7)
        assert net.max_flow(0, 3) == 0

    def test_classic_augmenting_case(self):
        # diamond with cross edge: requires flow cancellation to be optimal
        net = FlowNetwork(4)
        net.add_edge(0, 1, 1)
        net.add_edge(0, 2, 1)
        net.add_edge(1, 2, 1)
        net.add_edge(1, 3, 1)
        net.add_edge(2, 3, 1)
        assert net.max_flow(0, 3) == 2

    def test_zero_capacity_edge(self):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 0)
        assert net.max_flow(0, 1) == 0

    def test_negative_capacity_rejected(self):
        net = FlowNetwork(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, -1)

    def test_same_source_sink_rejected(self):
        net = FlowNetwork(2)
        with pytest.raises(ValueError):
            net.max_flow(0, 0)

    def test_out_of_range_edge_rejected(self):
        net = FlowNetwork(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 5, 1)

    def test_tiny_network_rejected(self):
        with pytest.raises(ValueError):
            FlowNetwork(1)


class TestMinCut:
    def test_cut_separates(self):
        value, source_side = max_flow_min_cut(
            3, [(0, 1, 4), (1, 2, 2)], 0, 2
        )
        assert value == 2
        assert 0 in source_side and 2 not in source_side

    def test_cut_capacity_equals_flow(self):
        # random networks: check max-flow == capacity across the returned cut
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(4, 10))
            edges = []
            for _ in range(int(rng.integers(5, 25))):
                u, v = rng.integers(0, n, 2)
                if u != v:
                    edges.append((int(u), int(v), int(rng.integers(0, 12))))
            value, side = max_flow_min_cut(n, edges, 0, n - 1)
            cut_cap = sum(c for u, v, c in edges if u in side and v not in side)
            assert value == cut_cap

    def test_inf_edges_never_cut(self):
        value, side = max_flow_min_cut(
            4, [(0, 1, 3), (1, 2, INF), (2, 3, 4)], 0, 3
        )
        assert value == 3
        # the INF edge must not cross the cut
        assert not (1 in side and 2 not in side)


class TestAgainstNetworkx:
    def test_random_networks_match_oracle(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            edges = {}
            for _ in range(int(rng.integers(5, 30))):
                u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
                if u != v:
                    edges[(u, v)] = int(rng.integers(1, 15))
            net = FlowNetwork(n)
            g = nx.DiGraph()
            g.add_nodes_from(range(n))
            for (u, v), c in edges.items():
                net.add_edge(u, v, c)
                g.add_edge(u, v, capacity=c)
            ours = net.max_flow(0, n - 1)
            theirs = nx.maximum_flow_value(g, 0, n - 1)
            assert ours == theirs
