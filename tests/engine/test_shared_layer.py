"""The link state's split routing graphs against dict-built ones.

Each edge set's :class:`~repro.routing.bellman_ford.FlatGraph` holds only
its ground-satellite edges, over a shared layer of the columns before the
first ground-satellite one, memoized by those columns' admission and eta
bytes. Per node, the shared edges and then the own edges must be the
dict graph's neighbours in order, and routing over the split graph must
give the dict graph's paths and etas, strict and at the k-shortest
rescue's relaxed threshold. The networks: the healthy 108-satellite day
(one layer for every strict graph), the same day under the committed
fault schedule, a hybrid network whose HAP flies a duty cycle (an on and
an off layer), a network with inter-satellite links (time-varying
columns among the shared ones) and an off-grid 45 s grid.

Trees keep only each node's tree edge; their costs are derived on
demand and must be the textbook Dijkstra's, bit for bit.
"""

import math

import numpy as np
import pytest

from repro.channels.presets import paper_isl_fso, paper_satellite_fso
from repro.engine import LinkStateCache
from repro.network.satellite import Satellite
from repro.network.topology import attach_satellites, build_qntn_ground_network
from repro.orbits import generate_movement_sheet
from repro.orbits.walker import qntn_constellation
from repro.routing.bellman_ford import FlatGraph
from repro.routing.strategies import StrategyConfig
from tests.engine.test_linkstate_columns import (
    day_network,
    example_plane,
    hybrid_network,
    neighbour_rows,
    sampled,
)
from tests.routing.dijkstra import dijkstra

RELAXED = StrategyConfig().eta_relax


def isl_network():
    """36 satellites over 2 h with inter-satellite links, some of which
    clear the threshold (the 12-satellite shell's are too long)."""
    ephemeris = generate_movement_sheet(qntn_constellation(36), duration_s=7200.0, step_s=60.0)
    network = build_qntn_ground_network()
    attach_satellites(network, ephemeris, paper_satellite_fso(), isl_model=paper_isl_fso())
    return network


@pytest.fixture(
    scope="module",
    params=["day-108-healthy", "day-108-example-faults", "hybrid-hap", "isl", "off-grid-45s"],
)
def case(request, day_ephemeris_108, small_ephemeris):
    name = request.param
    if name == "day-108-healthy":
        cache = LinkStateCache(day_network(day_ephemeris_108))
    elif name == "day-108-example-faults":
        cache = LinkStateCache(day_network(day_ephemeris_108), faults=example_plane())
    elif name == "hybrid-hap":
        cache = LinkStateCache(hybrid_network(small_ephemeris))
    elif name == "isl":
        cache = LinkStateCache(isl_network())
    else:
        cache = LinkStateCache(
            day_network(small_ephemeris), times_s=np.arange(0.0, 7200.0, 45.0)
        )
    return name, cache


def ground_sources(cache):
    """Every eighth ground site."""
    return [h.name for h in cache.network.hosts() if h.kind == "ground"][::8]


def assert_same_routes(tree, reference):
    """Equal reachability, paths, path etas (bit for bit) and
    predecessors for every destination, the source included."""
    for dest in reference.graph.nodes:
        assert tree.reachable(dest) == reference.reachable(dest), dest
        if reference.reachable(dest):
            assert tree.path_to(dest) == reference.path_to(dest), dest
            assert tree.eta_to(dest) == reference.eta_to(dest), dest
    assert tree.predecessors == reference.predecessors


def test_split_graph_routes_like_the_dict_graph(case):
    """Strict and relaxed, at every sampled row: the merged neighbour
    sequences are the dict graph's, and so are the trees' routes."""
    _, cache = case
    sources = ground_sources(cache)
    for eta_min in (None, RELAXED):
        for k in sampled(cache):
            flat = cache.flat_graph_at_index(k, eta_min)
            reference = FlatGraph(cache.graph_at_index(k, eta_min), cache.epsilon)
            assert neighbour_rows(flat) == neighbour_rows(reference), (eta_min, k)
            for source in sources:
                tree = (
                    cache.routing_tree_at_index(k, source)
                    if eta_min is None
                    else flat.tree(source)
                )
                assert_same_routes(tree, reference.tree(source))


def test_layers_are_shared_per_static_state(case):
    """One layer object per distinct admitted shared columns and etas:
    every strict graph of the healthy day shares one, the duty-cycled
    HAP gives an on and an off layer, and inter-satellite links, whose
    etas drift, give layers that carry satellite edges."""
    name, cache = case
    layers = {id(cache.flat_graph_at_index(k)._shared) for k in range(cache.n_times)}
    assert layers <= {id(layer) for layer in cache._layers.values()}
    if name in ("day-108-healthy", "off-grid-45s"):
        assert len(layers) == 1
    elif name == "hybrid-hap":
        assert len(layers) == 2
    elif name == "isl":
        satellites = [
            i for i, node in enumerate(cache._csr.nodes)
            if isinstance(cache.network.host(node), Satellite)
        ]
        assert len(layers) > 1
        assert any(
            layer.offsets[i] < layer.offsets[i + 1]
            for layer in cache._layers.values()
            for i in satellites
        )


def test_tree_values_match_dijkstra(case):
    """Derived costs are the textbook Dijkstra's bit for bit, infinity
    where unreachable; reachability, paths and predecessors are the
    dict-built tree's."""
    _, cache = case
    n_unreachable = 0
    for k in range(0, cache.n_times, max(cache.n_times // 30, 1)):
        graph = cache.graph_at_index(k)
        reference = FlatGraph(graph, cache.epsilon)
        for source in ground_sources(cache):
            tree = cache.routing_tree_at_index(k, source)
            expected, _ = dijkstra(graph, source, cache.epsilon)
            costs = tree.costs
            assert list(costs) == list(expected)
            for dest, cost in expected.items():
                assert costs[dest] == cost, (k, source, dest)
                assert math.isinf(costs[dest]) == (not tree.reachable(dest))
            n_unreachable += sum(math.isinf(c) for c in costs.values())
            assert_same_routes(tree, reference.tree(source))
    assert n_unreachable > 0, "the day's graphs should leave some node unreachable"
