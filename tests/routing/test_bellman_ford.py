"""Tests for Algorithm 1's routing tables and the Dijkstra tree."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.errors import NoPathError, RoutingError, ValidationError
from repro.routing.bellman_ford import FlatGraph, bellman_ford, build_routing_tables
from repro.routing.metrics import edge_cost, path_edges, path_transmissivity
from tests.routing.graphtools import to_networkx

TRIANGLE = {
    "a": {"b": 0.9, "c": 0.5},
    "b": {"a": 0.9, "c": 0.9},
    "c": {"a": 0.5, "b": 0.9},
}

DISCONNECTED = {
    "a": {"b": 0.8},
    "b": {"a": 0.8},
    "island": {},
}


class TestBellmanFord:
    def test_direct_vs_two_hop_tradeoff(self):
        """a->c direct has eta 0.5 (cost 2); a->b->c costs ~2.22: direct wins."""
        result = bellman_ford(TRIANGLE, "a")
        assert result.path_to("c") == ["a", "c"]

    def test_relay_preferred_when_direct_is_weak(self):
        graph = {
            "a": {"b": 0.95, "c": 0.3},
            "b": {"a": 0.95, "c": 0.95},
            "c": {"a": 0.3, "b": 0.95},
        }
        # direct cost 1/0.3 = 3.33 > two-hop 2/0.95 = 2.11.
        result = bellman_ford(graph, "a")
        assert result.path_to("c") == ["a", "b", "c"]

    def test_source_cost_zero(self):
        result = bellman_ford(TRIANGLE, "a")
        assert result.costs["a"] == 0.0
        assert result.predecessors["a"] is None

    def test_costs_are_edge_sums(self):
        result = bellman_ford(TRIANGLE, "a")
        assert result.costs["b"] == pytest.approx(edge_cost(0.9))

    def test_unreachable_infinite(self):
        result = bellman_ford(DISCONNECTED, "a")
        assert math.isinf(result.costs["island"])
        with pytest.raises(NoPathError):
            result.path_to("island")

    def test_unknown_source_rejected(self):
        with pytest.raises(RoutingError):
            bellman_ford(TRIANGLE, "ghost")

    def test_line_graph_path(self):
        line = {
            "n0": {"n1": 0.9},
            "n1": {"n0": 0.9, "n2": 0.8},
            "n2": {"n1": 0.8, "n3": 0.7},
            "n3": {"n2": 0.7},
        }
        result = bellman_ford(line, "n0")
        assert result.path_to("n3") == ["n0", "n1", "n2", "n3"]


def triangle_arrays(etas):
    """TRIANGLE's directed edges in dict order as (tails, heads, etas)."""
    nodes = list(TRIANGLE)
    pairs = [(u, v) for u, nbrs in TRIANGLE.items() for v in nbrs]
    tails = np.array([nodes.index(u) for u, _ in pairs])
    heads = np.array([nodes.index(v) for _, v in pairs])
    return nodes, tails, heads, np.array(etas, dtype=float)


class TestFlatGraphFromArrays:
    def test_equals_dict_constructor(self):
        nodes, tails, heads, etas = triangle_arrays(
            [eta for nbrs in TRIANGLE.values() for eta in nbrs.values()]
        )
        flat = FlatGraph.from_arrays(nodes, tails, heads, etas)
        reference = FlatGraph(TRIANGLE)
        assert flat.nodes == reference.nodes
        assert flat._offsets == reference._offsets == [0, 2, 4, 6]
        assert flat._heads == reference._heads
        assert flat._costs == reference._costs
        assert flat.tree("a") == reference.tree("a")

    @pytest.mark.parametrize(
        "tails, heads, etas",
        [
            pytest.param([0, 1, 2], [1, 0], [0.9, 0.9, 0.9], id="short-heads"),
            pytest.param([0, 1], [1, 0], [0.9, 0.9, 0.9], id="long-etas"),
            pytest.param([0, 1], [-1, 0], [0.9, 0.9], id="negative-head"),
            pytest.param([-1, 1], [1, 0], [0.9, 0.9], id="negative-tail"),
            pytest.param([0, 1], [3, 0], [0.9, 0.9], id="head-out-of-range"),
            pytest.param([0, 3], [1, 0], [0.9, 0.9], id="tail-out-of-range"),
            pytest.param([1, 0], [0, 1], [0.9, 0.9], id="tails-decrease"),
            pytest.param([0.0, 1.0], [1, 0], [0.9, 0.9], id="float-tails"),
        ],
    )
    def test_bad_index_arrays_rejected(self, tails, heads, etas):
        with pytest.raises(ValidationError):
            FlatGraph.from_arrays(
                ["a", "b", "c"], np.array(tails), np.array(heads), np.array(etas)
            )

    def test_empty_edge_list(self):
        empty = np.array([], dtype=np.int64)
        flat = FlatGraph.from_arrays(["a", "b"], empty, empty, np.array([]))
        assert flat._offsets == [0, 0, 0]
        assert not flat.tree("a").reachable("b")

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, math.inf])
    def test_eta_outside_unit_interval_rejected(self, bad):
        nodes, tails, heads, etas = triangle_arrays([0.9, 0.5, 0.9, bad, 0.5, 0.9])
        with pytest.raises(ValidationError):
            FlatGraph.from_arrays(nodes, tails, heads, etas)

    @pytest.mark.parametrize("epsilon", [0.0, -1e-6])
    def test_non_positive_epsilon_rejected(self, epsilon):
        nodes, tails, heads, etas = triangle_arrays([0.9, 0.5, 0.9, 0.9, 0.5, 0.9])
        with pytest.raises(ValidationError):
            FlatGraph.from_arrays(nodes, tails, heads, etas, epsilon)


def shortest_path(graph, source, destination):
    """A route and its end-to-end eta, both read off the tree."""
    tree = bellman_ford(graph, source)
    return tree.path_to(destination), tree.eta_to(destination)


class TestShortestPath:
    def test_returns_path_and_product(self):
        path, eta = shortest_path(TRIANGLE, "a", "b")
        assert path == ["a", "b"]
        assert eta == pytest.approx(0.9)

    def test_multihop_product(self):
        graph = {
            "a": {"b": 0.95},
            "b": {"a": 0.95, "c": 0.9},
            "c": {"b": 0.9},
        }
        path, eta = shortest_path(graph, "a", "c")
        assert path == ["a", "b", "c"]
        assert eta == pytest.approx(0.95 * 0.9)

    def test_no_path(self):
        with pytest.raises(NoPathError):
            bellman_ford(DISCONNECTED, "a").path_to("island")
        with pytest.raises(NoPathError):
            bellman_ford(DISCONNECTED, "a").eta_to("island")

    def test_source_equals_destination(self):
        path, eta = shortest_path(TRIANGLE, "a", "a")
        assert path == ["a"]
        assert eta == 1.0


class TestRoutingTables:
    def test_tables_match_single_source_costs(self):
        """The literal Algorithm 1 agrees with the relaxation form."""
        tables = build_routing_tables(TRIANGLE)
        for source in TRIANGLE:
            reference = bellman_ford(TRIANGLE, source)
            for dest in TRIANGLE:
                assert tables[source].cost(dest) == pytest.approx(
                    reference.costs[dest], abs=1e-9
                )

    def test_tables_on_disconnected_graph(self):
        tables = build_routing_tables(DISCONNECTED)
        assert math.isinf(tables["a"].cost("island"))
        assert not tables["a"].get("island").reachable

    def test_self_entry(self):
        tables = build_routing_tables(TRIANGLE)
        entry = tables["a"].get("a")
        assert entry.cost == 0.0
        assert entry.via is None

    def test_neighbor_via_is_direct(self):
        tables = build_routing_tables(TRIANGLE)
        assert tables["a"].get("b").via == "b"

    def test_random_graph_equivalence(self, rng):
        """Both implementations agree on random connected graphs."""
        n = 12
        names = [f"v{i}" for i in range(n)]
        graph = {name: {} for name in names}
        # Ring for connectivity plus random chords.
        for i in range(n):
            j = (i + 1) % n
            eta = float(rng.uniform(0.1, 1.0))
            graph[names[i]][names[j]] = eta
            graph[names[j]][names[i]] = eta
        for _ in range(10):
            i, j = rng.choice(n, size=2, replace=False)
            eta = float(rng.uniform(0.1, 1.0))
            graph[names[i]][names[j]] = eta
            graph[names[j]][names[i]] = eta
        tables = build_routing_tables(graph)
        for source in names[:4]:
            reference = bellman_ford(graph, source)
            for dest in names:
                assert tables[source].cost(dest) == pytest.approx(
                    reference.costs[dest], abs=1e-9
                )


def random_tied_graph(rng, n):
    """Random graph on ``n`` nodes with etas from three values, so
    equal-cost routes are common; some nodes may be isolated."""
    names = [f"v{i}" for i in rng.permutation(n)]
    graph = {name: {} for name in names}
    for _ in range(int(rng.integers(n, 3 * n))):
        i, j = rng.choice(n, size=2, replace=False)
        eta = float(rng.choice([0.5, 0.7, 0.9]))
        graph[names[i]][names[j]] = eta
        graph[names[j]][names[i]] = eta
    return graph


class TestDijkstraTree:
    def test_random_tied_graphs(self, rng):
        """Costs match Algorithm 1 and networkx; paths are simple and
        their left-to-right cost sums are the tree's costs exactly."""
        for _ in range(40):
            graph = random_tied_graph(rng, int(rng.integers(2, 13)))
            tables = build_routing_tables(graph)
            g = to_networkx(graph)
            flat = FlatGraph(graph)
            for source in graph:
                tree = flat.tree(source)
                oracle = nx.single_source_dijkstra_path_length(g, source)
                for dest in graph:
                    cost = tree.costs[dest]
                    assert cost == pytest.approx(tables[source].cost(dest), abs=1e-9)
                    if dest not in oracle:
                        assert math.isinf(cost) and not tree.reachable(dest)
                        continue
                    assert cost == pytest.approx(oracle[dest], abs=1e-9)
                    path = tree.path_to(dest)
                    assert path[0] == source and path[-1] == dest
                    assert len(set(path)) == len(path)
                    total = 0.0
                    for eta in path_edges(graph, path):
                        total += edge_cost(eta)
                    assert total == cost

    @pytest.mark.parametrize("order", [["a", "b", "c", "d"], ["a", "c", "b", "d"]])
    def test_first_popped_predecessor_wins(self, order):
        """On a diamond of equal etas, ``d`` keeps the relay popped first:
        the lower node index among the equal-cost relays."""
        edges = {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}
        graph = {name: {} for name in order}
        for u in order:
            for v in order:
                if (u, v) in edges or (v, u) in edges:
                    graph[u][v] = 0.8
        tree = bellman_ford(graph, "a")
        assert tree.path_to("d") == ["a", order[1], "d"]
        assert tree.predecessors == {"a": None, "b": "a", "c": "a", "d": order[1]}


class TestTreeEta:
    """The tree's path eta is the left fold ``path_transmissivity`` runs
    over ``path_edges``: equal with ``==``, not approximately."""

    def test_random_tied_graphs(self, rng):
        for _ in range(40):
            graph = random_tied_graph(rng, int(rng.integers(2, 13)))
            flat = FlatGraph(graph)
            for source in graph:
                tree = flat.tree(source)
                for dest in graph:
                    if not tree.reachable(dest):
                        with pytest.raises(NoPathError):
                            tree.eta_to(dest)
                        continue
                    path = tree.path_to(dest)
                    assert tree.eta_to(dest) == path_transmissivity(path_edges(graph, path))

    def test_paper_day_through_the_link_state(self, day_ephemeris_108):
        from repro.channels.presets import paper_satellite_fso
        from repro.engine import LinkStateCache
        from repro.network.topology import attach_satellites, build_qntn_ground_network

        network = build_qntn_ground_network()
        attach_satellites(network, day_ephemeris_108, paper_satellite_fso())
        cache = LinkStateCache(network)
        grounds = [h.name for h in network.hosts() if h.kind == "ground"]
        n_paths = n_relayed = 0
        for k in range(0, cache.n_times, 97):
            graph = cache.graph_at_index(k)
            for source in grounds:
                tree = cache.routing_tree_at_index(k, source)
                for dest in graph:
                    if dest == source or not tree.reachable(dest):
                        continue
                    path = tree.path_to(dest)
                    assert tree.eta_to(dest) == path_transmissivity(
                        path_edges(graph, path)
                    ), (k, source, dest)
                    n_paths += 1
                    n_relayed += any(network.host(n).kind != "ground" for n in path)
        assert n_relayed > 0 and n_paths > n_relayed
