"""Tests for the Dijkstra baseline and its agreement with Bellman–Ford."""

import math

import pytest

from repro.errors import NoPathError, RoutingError
from repro.routing.bellman_ford import bellman_ford
from tests.routing.dijkstra import dijkstra, dijkstra_path


def random_graph(rng, n=15, extra=20):
    names = [f"v{i}" for i in range(n)]
    graph = {name: {} for name in names}
    for i in range(n - 1):
        eta = float(rng.uniform(0.05, 1.0))
        graph[names[i]][names[i + 1]] = eta
        graph[names[i + 1]][names[i]] = eta
    for _ in range(extra):
        i, j = rng.choice(n, size=2, replace=False)
        eta = float(rng.uniform(0.05, 1.0))
        graph[names[i]][names[j]] = eta
        graph[names[j]][names[i]] = eta
    return graph, names


class TestDijkstra:
    def test_agrees_with_bellman_ford_on_random_graphs(self, rng):
        for _ in range(5):
            graph, names = random_graph(rng)
            for source in names[:3]:
                d_costs, _ = dijkstra(graph, source)
                bf = bellman_ford(graph, source)
                for dest in names:
                    assert d_costs[dest] == pytest.approx(bf.costs[dest], abs=1e-9)

    def test_path_and_eta_agree(self, rng):
        graph, names = random_graph(rng)
        p1, eta1 = dijkstra_path(graph, names[0], names[-1])
        tree = bellman_ford(graph, names[0])
        assert eta1 == pytest.approx(tree.eta_to(names[-1]))

    def test_unreachable(self):
        graph = {"a": {}, "b": {}}
        costs, _ = dijkstra(graph, "a")
        assert math.isinf(costs["b"])
        with pytest.raises(NoPathError):
            dijkstra_path(graph, "a", "b")

    def test_unknown_source(self):
        with pytest.raises(RoutingError):
            dijkstra({"a": {}}, "ghost")

    def test_trivial_self_path(self):
        path, eta = dijkstra_path({"a": {}}, "a", "a")
        assert path == ["a"]
        assert eta == 1.0
