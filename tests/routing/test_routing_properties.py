"""Property tests: Bellman–Ford and Dijkstra agree on random graphs.

Both routers minimise the same additive cost ``sum 1/(eta + eps)`` over
strictly positive edge costs, so on any graph they must report the same
reachable set and the same optimal cost per destination (paths may
differ only between exact ties).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoPathError
from repro.routing.bellman_ford import bellman_ford
from repro.routing.metrics import edge_cost, path_edges, path_transmissivity
from tests.routing.dijkstra import dijkstra, dijkstra_path


@st.composite
def graphs(draw):
    """Random undirected graphs with eta-weighted edges on 2..7 nodes."""
    n = draw(st.integers(min_value=2, max_value=7))
    nodes = [f"n{i}" for i in range(n)]
    graph = {node: {} for node in nodes}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if draw(st.booleans()):
                eta = draw(st.floats(min_value=0.01, max_value=1.0))
                graph[a][b] = eta
                graph[b][a] = eta
    return graph


@settings(max_examples=150, deadline=None)
@given(graph=graphs())
def test_same_reachable_set_and_optimal_cost(graph):
    bf = bellman_ford(graph, "n0")
    dj_costs, _ = dijkstra(graph, "n0")
    for node in graph:
        dj_cost = dj_costs.get(node, math.inf)
        assert bf.reachable(node) == math.isfinite(dj_cost)
        if bf.reachable(node):
            assert bf.costs[node] == pytest.approx(dj_cost, rel=1e-9, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(graph=graphs())
def test_paths_realize_the_reported_costs(graph):
    bf = bellman_ford(graph, "n0")
    for node in graph:
        if not bf.reachable(node):
            with pytest.raises(NoPathError):
                dijkstra_path(graph, "n0", node)
            continue
        bf_path = bf.path_to(node)
        dj_path, dj_eta = dijkstra_path(graph, "n0", node)
        assert bf_path[0] == dj_path[0] == "n0"
        assert bf_path[-1] == dj_path[-1] == node
        bf_cost = sum(edge_cost(eta) for eta in path_edges(graph, bf_path))
        dj_cost = sum(edge_cost(eta) for eta in path_edges(graph, dj_path))
        assert bf_cost == pytest.approx(bf.costs[node], rel=1e-9, abs=1e-12)
        assert dj_cost == pytest.approx(bf.costs[node], rel=1e-9, abs=1e-12)
        assert dj_eta == pytest.approx(
            path_transmissivity(path_edges(graph, dj_path)), rel=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(graph=graphs())
def test_source_is_trivially_reachable(graph):
    bf = bellman_ford(graph, "n0")
    dj_costs, dj_prev = dijkstra(graph, "n0")
    assert bf.costs["n0"] == 0.0
    assert dj_costs["n0"] == 0.0
    assert bf.predecessors["n0"] is None
    assert dj_prev["n0"] is None
