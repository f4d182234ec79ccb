"""A cached request is served off its routing tree alone.

The tree gives the route and its end-to-end eta
(:meth:`~repro.routing.bellman_ford.BellmanFordResult.eta_to`), so
``serve_request``, ``serve_requests`` and the LAN connectivity queries
build no dict link graph on the cached engine. The graph is built only
where it is read: a flight record's hop etas and a tracked density
matrix. Outcomes stay the ones the dict graph gives: each served eta is
``path_transmissivity(path_edges(graph, path))`` bit for bit, and the
direct oracle agrees to round-off.
"""

import math

import pytest

from repro.channels.presets import paper_satellite_fso
from repro.network.simulator import NetworkSimulator
from repro.network.topology import attach_satellites, build_qntn_ground_network
from repro.obs import events
from repro.routing.metrics import path_edges, path_transmissivity
from repro.serve import outcomes_equal


@pytest.fixture(scope="module")
def network(small_ephemeris):
    network = build_qntn_ground_network()
    attach_satellites(network, small_ephemeris, paper_satellite_fso())
    return network


@pytest.fixture(scope="module")
def requests(network, small_ephemeris):
    """Every ordered pair of four sites in three LANs at six grid
    samples: intra-LAN fiber routes, satellite relays (samples 12-21 are
    a pass) and denials."""
    names = ["ttu-0", "ttu-1", "epb-3", "ornl-1"]
    times = small_ephemeris.times_s[[0, 12, 14, 21, 60, 110]].tolist()
    return [(a, b, t) for t in times for a in names for b in names if a != b]


def served_eta(simulator, outcome):
    ls = simulator.linkstate
    graph = ls.graph_at_index(ls.time_index(outcome.t_s))
    return path_transmissivity(path_edges(graph, list(outcome.path)))


def test_cached_serving_builds_no_dict_graph(network, requests):
    simulator = NetworkSimulator(network, use_cache=True)
    outcomes = [simulator.serve_request(a, b, t) for a, b, t in requests]
    t0 = requests[0][2]
    batch = simulator.serve_requests([(a, b) for a, b, t in requests if t == t0], t0)
    simulator.all_lans_connected(t0)
    assert simulator.linkstate._graphs == {}

    direct = NetworkSimulator(network)
    n_served = n_relayed = 0
    for (a, b, t), outcome in zip(requests, outcomes):
        oracle = direct.serve_request(a, b, t)
        assert (outcome.served, outcome.path) == (oracle.served, oracle.path)
        if outcome.served:
            assert outcome.path_eta == pytest.approx(oracle.path_eta, rel=1e-12)
            n_served += 1
            n_relayed += any(network.host(n).kind != "ground" for n in outcome.path)
    assert n_relayed > 0 and n_served < len(requests)
    # Bit for bit the eta the dict graph gives (these calls build it).
    for outcome in outcomes + batch:
        if outcome.served:
            assert outcome.path_eta == served_eta(simulator, outcome)
    assert all(outcomes_equal(a, b) for a, b in zip(batch, outcomes))


def test_flight_record_hop_etas_read_the_dict_graph(network, requests):
    simulator = NetworkSimulator(network, use_cache=True)
    with events.recording() as rec:
        outcomes = [simulator.serve_request(a, b, t) for a, b, t in requests]
        roots = [r["attrs"] for r in rec.records() if r.get("name") == "request"]
    assert simulator.linkstate._graphs  # a recorder reads hop etas
    assert len(roots) == len(outcomes)
    ls = simulator.linkstate
    for attrs, outcome in zip(roots, outcomes):
        assert attrs["served"] == outcome.served
        if not outcome.served:
            continue
        graph = ls.graph_at_index(ls.time_index(outcome.t_s))
        assert attrs["hop_etas"] == path_edges(graph, list(outcome.path))
        assert attrs["path_eta"] == outcome.path_eta == path_transmissivity(
            attrs["hop_etas"]
        )


def test_tracked_states_read_the_dict_graph(network, requests):
    simulator = NetworkSimulator(network, use_cache=True, track_states=True)
    fast = NetworkSimulator(network, use_cache=True)
    for a, b, t in requests[:24]:
        tracked, closed = simulator.serve_request(a, b, t), fast.serve_request(a, b, t)
        assert (tracked.served, tracked.path, tracked.path_eta) == (
            closed.served, closed.path, closed.path_eta
        )
        if tracked.served:
            assert tracked.pair is not None
            assert tracked.fidelity == pytest.approx(closed.fidelity, abs=1e-9)
        else:
            assert math.isnan(tracked.fidelity)
    assert fast.linkstate._graphs == {}
