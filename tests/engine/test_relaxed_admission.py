"""Relaxed admission read off the strict link state.

The k-shortest rescue routes over a *relaxed* graph: the strict policy
with a lower (or higher) transmissivity threshold, ``eta_relax``, and
the same elevation gate. :class:`LinkStateCache` serves it from the
strict build's own arrays — the columns whose ``OPEN`` bit is set and
whose stored eta reaches the threshold. The reference here is what the
rescue used to build: a second ``LinkStateCache`` under
``strategy.relaxed_policy``. The derived graph and edge key must equal
the reference's bit for bit at every grid sample (healthy and faulted,
``eta_relax`` below and above the strict 0.7), and
the usable edges must match the scalar
``QuantumNetwork.link_graph(t, relaxed_policy, faults=plane)`` oracle
with etas to 1e-12.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.channels.presets import paper_hap_fso, paper_satellite_fso
from repro.engine import LinkStateCache
from repro.engine.linkstate import OPEN, USABLE
from repro.errors import ValidationError
from repro.faults import load_faults
from repro.faults.plane import FaultPlane
from repro.faults.schedule import GroundStationDowntime, LinkFlap, WeatherFade
from repro.network.hap import HAP
from repro.network.links import LinkPolicy
from repro.network.simulator import NetworkSimulator
from repro.network.topology import attach_hap, attach_satellites, build_qntn_ground_network
from repro.routing.strategies import KShortestStrategy, StrategyConfig
from repro.utils.intervals import Interval

from tests.engine.test_linkstate import assert_graphs_match

EXAMPLE_FAULTS = Path(__file__).parents[2] / "benchmarks" / "results" / "example_faults.json"

#: Node and link gates the committed example lacks: a station down, a
#: ground-satellite and a ground-HAP link cut. The fade takes ornl-0's
#: HAP link below 0.7 and 0.8 but not below 0.5, so the 0.5 row keeps a
#: link the strict row drops. Each event closes or fades some link here.
GATE_EVENTS = (
    GroundStationDowntime(600.0, 2400.0, station="epb-3"),
    LinkFlap(0.0, 3600.0, node_a="ttu-0", node_b="sat-004"),
    LinkFlap(1200.0, 4800.0, node_a="ornl-2", node_b="hap-0"),
    WeatherFade(1800.0, 5400.0, site="ornl-0", extra_db=2.0),
)


def make_plane(name):
    if name == "healthy":
        return None
    if name == "example-faults":
        return load_faults(EXAMPLE_FAULTS).realize(seed=7, horizon_s=86400.0).compile()
    return FaultPlane(GATE_EVENTS)


@pytest.fixture(scope="module")
def network(small_ephemeris):
    """Twelve satellites and a HAP on a duty cycle over two hours."""
    network = build_qntn_ground_network()
    attach_satellites(network, small_ephemeris, paper_satellite_fso())
    attach_hap(
        network,
        HAP(operational_windows=[Interval(0.0, 1800.0), Interval(3600.0, 5400.0)]),
        paper_hap_fso(),
    )
    return network


@pytest.fixture(scope="module", params=["healthy", "example-faults", "gates"])
def plane(request):
    return make_plane(request.param)


@pytest.fixture(scope="module", params=[0.5, 0.8])
def relaxed_policy(request):
    config = StrategyConfig(router="k-shortest", k=2, eta_relax=request.param)
    return KShortestStrategy(config).relaxed_policy


@pytest.fixture(scope="module", params=["eager"])  # the id keeps test ids stable
def build(request):
    return request.param


@pytest.fixture(scope="module")
def derived(network, plane, build):
    return LinkStateCache(network, faults=plane)


@pytest.fixture(scope="module")
def reference(network, plane, build, relaxed_policy):
    return LinkStateCache(network, policy=relaxed_policy, faults=plane)


def test_relaxed_row_equals_a_relaxed_policy_build(derived, reference, relaxed_policy):
    eta = relaxed_policy.transmissivity_threshold
    n_differ = 0
    for k in range(derived.n_times):
        graph = derived.graph_at_index(k, eta)
        expected = reference.graph_at_index(k)
        assert graph == expected, k
        for node, neighbors in expected.items():
            assert list(graph[node]) == list(neighbors), (k, node)
        assert derived.edge_key(k, eta) == reference.edge_key(k), k
        n_differ += graph != derived.graph_at_index(k)
    assert n_differ > 0, "the relaxed threshold never changed the graph"


def test_relaxed_graph_matches_the_direct_oracle(network, plane, relaxed_policy):
    """Every fourth sample (the scalar oracle costs ~65 ms a sample)."""
    cache = LinkStateCache(network, faults=plane)
    eta = relaxed_policy.transmissivity_threshold
    for k in range(0, cache.n_times, 4):
        direct = network.link_graph(float(cache.times_s[k]), relaxed_policy, faults=plane)
        assert_graphs_match(cache.graph_at_index(k, eta), direct)


def test_usable_is_open_above_the_strict_threshold(derived):
    usable = (derived._gates & USABLE) != 0
    is_open = (derived._gates & OPEN) != 0
    threshold = derived.policy.transmissivity_threshold
    np.testing.assert_array_equal(usable, is_open & (derived._eta >= threshold))


def test_strict_memo_is_not_shared_with_a_threshold(derived):
    """A strict row and a threshold row of one sample are distinct memo
    entries, whichever is built first."""
    k = derived.n_times // 2
    relaxed = derived.graph_at_index(k, 0.5)
    strict = derived.graph_at_index(k)
    assert derived.graph_at_index(k, 0.5) is relaxed
    assert derived.graph_at_index(k) is strict
    assert derived.edge_key(k, 0.7) == derived.edge_key(k)


@pytest.mark.parametrize("event", GATE_EVENTS, ids=lambda e: type(e).__name__)
def test_each_gate_event_changes_the_link_state(network, event):
    healthy = LinkStateCache(network)
    faulted = LinkStateCache(network, faults=FaultPlane([event]))
    assert not (
        np.array_equal(healthy._gates, faulted._gates)
        and np.array_equal(healthy._eta, faulted._eta)
    )


def test_open_is_every_gate_but_the_threshold(network):
    """At threshold zero the row admits exactly the ``OPEN`` links, which
    are the links a zero-threshold policy admits."""
    cache = LinkStateCache(network)
    policy = LinkPolicy(transmissivity_threshold=0.0)
    for k in range(0, cache.n_times, 10):
        direct = network.link_graph(float(cache.times_s[k]), policy)
        assert_graphs_match(cache.graph_at_index(k, 0.0), direct)


def test_prebuilt_strategy_shares_the_elevation_gate(network):
    """The cached rescue admits on the simulator's elevation gate, so a
    strategy built against another gate is rejected."""
    config = StrategyConfig(router="k-shortest", k=2)
    other = KShortestStrategy(config, policy=LinkPolicy(min_elevation_rad=0.1))
    with pytest.raises(ValidationError, match="min_elevation_rad"):
        NetworkSimulator(network, use_cache=True, strategy=other)
    NetworkSimulator(network, use_cache=True, strategy=KShortestStrategy(config))


def test_prebuilt_strategy_shares_the_epsilon(network):
    """The cached rescue's Yen runs on the link state's costs, so a
    strategy built with another routing epsilon is rejected."""
    config = StrategyConfig(router="k-shortest", k=2)
    other = KShortestStrategy(config, epsilon=1e-3)
    with pytest.raises(ValidationError, match="epsilon"):
        NetworkSimulator(network, use_cache=True, strategy=other)
