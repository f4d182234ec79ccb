"""Ablation A1 — the paper's literal Algorithm 1 vs the production tree.

Algorithm 1 builds every node's routing table in N-1 synchronous
distance-vector rounds; the routers instead build one single-source
tree per source (:meth:`FlatGraph.tree`, Dijkstra over a CSR adjacency).
Both minimise the same positive ``1/(eta + eps)`` metric, so they must
agree on every optimal cost; the question is run time on a QNTN-scale
link graph. The all-pairs comparison gives both the same work: one
table per node against one tree per node.
"""

import math

import pytest

from repro.channels.presets import paper_satellite_fso
from repro.network.topology import attach_satellites, build_qntn_ground_network
from repro.orbits.ephemeris import generate_movement_sheet
from repro.orbits.walker import qntn_constellation
from repro.routing.bellman_ford import FlatGraph, bellman_ford, build_routing_tables


@pytest.fixture(scope="module")
def qntn_graph():
    """A usable-link graph of the full QNTN space-ground network at an
    instant with satellites overhead."""
    eph = generate_movement_sheet(qntn_constellation(108), duration_s=43200.0, step_s=300.0)
    network = build_qntn_ground_network()
    attach_satellites(network, eph, paper_satellite_fso())
    # Find an instant where the network is globally connected.
    for t in eph.times_s:
        graph = network.link_graph(float(t))
        result = bellman_ford(graph, "ttu-0")
        if result.reachable("epb-0") and result.reachable("ornl-0"):
            return graph
    raise RuntimeError("no covered instant found in 12 h of satellite motion")


@pytest.fixture(scope="module")
def active_graph(qntn_graph):
    """The ground nodes plus currently linked satellites, so the
    O(N^3) literal algorithm stays tractable while remaining realistic."""
    active = {n for n, nbrs in qntn_graph.items() if nbrs}
    return {
        n: {m: eta for m, eta in nbrs.items() if m in active}
        for n, nbrs in qntn_graph.items()
        if n in active
    }


def all_trees(graph):
    """One production tree per source over one flat graph."""
    flat = FlatGraph(graph)
    return {source: flat.tree(source) for source in graph}


def test_ablation_production_tree(benchmark, qntn_graph):
    """One request's route on the full graph: the serve path's unit."""
    result = benchmark(bellman_ford, qntn_graph, "ttu-0")
    assert result.reachable("epb-0")


def test_ablation_production_all_pairs(benchmark, active_graph):
    trees = benchmark(all_trees, active_graph)
    assert trees.keys() == active_graph.keys()


def test_ablation_algorithm1_tables(benchmark, active_graph):
    """The paper's literal Algorithm 1 (all-pairs tables, N-1 rounds)
    agrees with the production trees on every (source, destination)."""
    tables = benchmark.pedantic(
        build_routing_tables, args=(active_graph,), rounds=1, iterations=1
    )
    trees = all_trees(active_graph)
    mismatches = [
        (source, dest)
        for source, tree in trees.items()
        for dest, cost in tree.costs.items()
        if not math.isclose(tables[source].cost(dest), cost, abs_tol=1e-9)
    ]
    assert not mismatches, f"Algorithm 1 and the tree disagree on {mismatches[:5]}"
    print(
        "\n  Algorithm 1 tables agree with the production trees on all "
        f"{len(active_graph) ** 2} (source, destination) pairs"
    )
