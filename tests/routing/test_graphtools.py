"""Cross-validation of in-house routing against networkx, plus diagnostics."""

import math

import networkx as nx
import pytest

from repro.errors import NoPathError, RoutingError
from repro.routing.bellman_ford import bellman_ford
from repro.routing.metrics import edge_cost
from tests.routing.graphtools import (
    ConnectivityReport,
    connectivity_report,
    networkx_path_cost,
    to_networkx,
)

TRIANGLE = {
    "a": {"b": 0.9, "c": 0.5},
    "b": {"a": 0.9, "c": 0.9},
    "c": {"a": 0.5, "b": 0.9},
}


class TestToNetworkx:
    def test_nodes_and_edges(self):
        g = to_networkx(TRIANGLE)
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 3

    def test_edge_attributes(self):
        g = to_networkx(TRIANGLE)
        assert g["a"]["b"]["eta"] == 0.9
        assert g["a"]["b"]["weight"] == pytest.approx(edge_cost(0.9))

    def test_isolated_nodes_kept(self):
        g = to_networkx({"a": {}, "b": {}})
        assert g.number_of_nodes() == 2
        assert g.number_of_edges() == 0


class TestCrossValidation:
    def test_triangle_agrees(self):
        for src in TRIANGLE:
            ours = bellman_ford(TRIANGLE, src)
            for dst in TRIANGLE:
                assert networkx_path_cost(TRIANGLE, src, dst) == pytest.approx(
                    ours.costs[dst], abs=1e-9
                )

    def test_random_graphs_agree(self, rng):
        """Independent-oracle check: networkx Dijkstra vs our Bellman-Ford."""
        for _ in range(5):
            n = 20
            names = [f"v{i}" for i in range(n)]
            graph = {name: {} for name in names}
            for i in range(n - 1):
                eta = float(rng.uniform(0.05, 1.0))
                graph[names[i]][names[i + 1]] = eta
                graph[names[i + 1]][names[i]] = eta
            for _ in range(25):
                i, j = rng.choice(n, size=2, replace=False)
                eta = float(rng.uniform(0.05, 1.0))
                graph[names[i]][names[j]] = eta
                graph[names[j]][names[i]] = eta
            ours = bellman_ford(graph, names[0])
            for dst in names:
                assert networkx_path_cost(graph, names[0], dst) == pytest.approx(
                    ours.costs[dst], abs=1e-9
                )

    def test_qntn_snapshot_agrees(self, hap_simulator):
        graph = hap_simulator.link_graph(0.0)
        ours = bellman_ford(graph, "ttu-0")
        for dst in ("epb-0", "ornl-5", "hap-0", "ttu-3"):
            assert networkx_path_cost(graph, "ttu-0", dst) == pytest.approx(
                ours.costs[dst], abs=1e-9
            )

    def test_no_path(self):
        with pytest.raises(NoPathError):
            networkx_path_cost({"a": {}, "b": {}}, "a", "b")

    def test_unknown_endpoint(self):
        with pytest.raises(RoutingError):
            networkx_path_cost(TRIANGLE, "a", "ghost")


class TestConnectivityReport:
    def test_triangle_fully_connected(self):
        report = connectivity_report(TRIANGLE)
        assert report.n_components == 1
        assert report.largest_component_size == 3
        assert report.n_articulation_points == 0

    def test_line_has_articulation_point(self):
        line = {"a": {"b": 0.9}, "b": {"a": 0.9, "c": 0.9}, "c": {"b": 0.9}}
        report = connectivity_report(line)
        assert report.n_articulation_points == 1

    def test_lan_condition(self):
        graph = {
            "x1": {"x2": 0.9},
            "x2": {"x1": 0.9},
            "y1": {},
        }
        members = {"x": ["x1", "x2"], "y": ["y1"]}
        report = connectivity_report(graph, members)
        assert not report.lans_connected
        graph["x2"]["y1"] = 0.9
        graph["y1"]["x2"] = 0.9
        assert connectivity_report(graph, members).lans_connected

    def test_hap_network_single_relay_is_articulation_point(self, hap_simulator):
        """The single HAP is the air-ground architecture's SPOF."""
        graph = hap_simulator.link_graph(0.0)
        members = hap_simulator.network.local_networks
        report = connectivity_report(graph, members)
        assert isinstance(report, ConnectivityReport)
        assert report.lans_connected
        assert report.n_components == 1
        g = to_networkx(graph)
        assert "hap-0" in set(nx.articulation_points(g))
