"""Tests for the compiled FaultPlane: the scalar queries, and the
vectorized applier against the scalar oracle."""

import numpy as np
import pytest

from repro import obs
from repro.channels.presets import paper_fiber, paper_hap_fso, paper_isl_fso, paper_satellite_fso
from repro.data.ground_nodes import all_ground_nodes
from repro.faults import (
    FaultPlane,
    FaultSchedule,
    GroundStationDowntime,
    LinkFlap,
    SatelliteOutage,
    WeatherFade,
)
from repro.network.hap import HAP
from repro.network.host import GroundStation
from repro.network.links import LinkPolicy
from repro.network.satellite import Satellite
from repro.network.topology import QuantumNetwork

TIMES = np.arange(0.0, 600.0, 30.0)

#: A pass of sat-004 over Tennessee on the 12-satellite sheet.
NET_TIMES = np.arange(600.0, 1500.0, 30.0)


def plane() -> FaultPlane:
    return FaultSchedule(
        events=(
            SatelliteOutage(60.0, 120.0, satellite="sat-000"),
            SatelliteOutage(300.0, 330.0, satellite="sat-000"),
            GroundStationDowntime(90.0, 150.0, station="ttu-0"),
            WeatherFade(0.0, 240.0, site="ttu-0", extra_db=3.0),
            WeatherFade(120.0, 480.0, site="ttu-0", extra_db=7.0),
            LinkFlap(30.0, 90.0, node_a="ornl-0", node_b="sat-002"),
        )
    ).compile()


def _acts_on(event, a, b, site) -> bool:
    if isinstance(event, SatelliteOutage):
        return event.satellite in (a, b)
    if isinstance(event, GroundStationDowntime):
        return event.station in (a, b)
    if isinstance(event, LinkFlap):
        return {event.node_a, event.node_b} == {a, b}
    return event.site == site


@pytest.fixture
def telemetry():
    obs.reset()
    obs.enable()
    try:
        yield
    finally:
        obs.disable()
        obs.reset()


@pytest.fixture(scope="module")
def mixed(small_ephemeris):
    """Fiber, ground-satellite, ground-HAP and inter-satellite channels;
    a plane with a satellite outage, a station downtime, a link flap and
    two stacked fades on one site; and each channel's healthy
    evaluation at every sample of ``NET_TIMES``."""
    nodes = {node.name: node for node in all_ground_nodes()}
    network = QuantumNetwork()
    grounds, sats = ("ttu-0", "ttu-1", "epb-3"), ("sat-003", "sat-004", "sat-005")
    for name in grounds:
        node = nodes[name]
        network.add_host(GroundStation(name, node.lat_deg, node.lon_deg, node.alt_km, name[:3]))
    network.add_host(HAP())
    for name in sats:
        network.add_host(Satellite(name, small_ephemeris))
    network.connect("ttu-0", "ttu-1", paper_fiber())
    for ground in grounds:
        network.connect(ground, "hap-0", paper_hap_fso())
        for sat in sats:
            network.connect(sat, ground, paper_satellite_fso())
    network.connect("sat-003", "sat-004", paper_isl_fso())
    network.connect("sat-004", "sat-005", paper_isl_fso())
    p = FaultSchedule(
        events=(
            SatelliteOutage(690.0, 810.0, satellite="sat-004"),
            GroundStationDowntime(900.0, 990.0, station="ttu-1"),
            LinkFlap(720.0, 840.0, node_a="epb-3", node_b="sat-004"),
            WeatherFade(600.0, 1080.0, site="ttu-0", extra_db=1.0),
            WeatherFade(840.0, 1200.0, site="ttu-0", extra_db=1.5),
        )
    ).compile()
    policy = LinkPolicy()
    states = [
        [ch.evaluate(t, policy) for t in NET_TIMES.tolist()] for ch in network.channels()
    ]
    return network, p, states


class TestScalarQueries:
    def test_half_open_node_windows(self):
        p = plane()
        assert not p.node_down("sat-000", 59.999)
        assert p.node_down("sat-000", 60.0)
        assert p.node_down("sat-000", 119.999)
        assert not p.node_down("sat-000", 120.0)
        assert p.node_down("sat-000", 310.0)

    def test_unknown_node_never_down(self):
        assert not plane().node_down("sat-011", 100.0)

    def test_link_cut_symmetric(self):
        p = plane()
        assert p.link_cut("ornl-0", "sat-002", 60.0)
        assert p.link_cut("sat-002", "ornl-0", 60.0)
        assert not p.link_cut("ornl-0", "sat-002", 90.0)

    def test_stacked_fades_multiply(self):
        p = plane()
        f3 = 10.0 ** (-3.0 / 10.0)
        f7 = 10.0 ** (-7.0 / 10.0)
        assert p.fade_factor("ttu-0", 60.0) == f3
        assert p.fade_factor("ttu-0", 180.0) == f3 * f7
        assert p.fade_factor("ttu-0", 300.0) == f7
        assert p.fade_factor("ttu-0", 500.0) == 1.0

    def test_unfaded_site_is_exactly_one(self):
        assert plane().fade_factor("ornl-0", 180.0) == 1.0


class TestApplier:
    """``apply_edges`` against the scalar oracle ``apply_channel``, point
    for point, on a network with every channel kind."""

    def test_edge_fades_only_the_ground_end_of_fso(self, mixed):
        network, _, _ = mixed
        edges = {frozenset(ch.names): FaultPlane.edge(ch) for ch in network.channels()}
        assert edges[frozenset(("ttu-0", "ttu-1"))][2] is None  # fiber
        assert edges[frozenset(("sat-003", "sat-004"))][2] is None  # ISL
        assert edges[frozenset(("ttu-0", "hap-0"))][2] == "ttu-0"
        assert edges[frozenset(("sat-004", "epb-3"))][2] == "epb-3"

    @pytest.mark.parametrize("form", ["dense", "at"])
    def test_equals_apply_channel(self, mixed, telemetry, form):
        network, p, states = mixed
        channels = list(network.channels())
        policy = LinkPolicy()
        edges = [FaultPlane.edge(ch) for ch in channels]
        eta = np.array([[s.transmissivity for s in row] for row in states])
        healthy = np.array([[s.usable for s in row] for row in states])
        if form == "dense":
            rows, cols = np.indices(eta.shape).reshape(2, -1)
            at = None
        else:
            flat = np.random.default_rng(3).permutation(eta.size)[: eta.size // 2]
            rows, cols = np.divmod(flat, NET_TIMES.size)
            at = (rows, cols)
            eta, healthy = eta[rows, cols], healthy[rows, cols]
        counter = obs.counter("faults.link_steps.suppressed")
        before = counter.value
        got_eta, got_usable, got_up = p.apply_edges(
            edges, NET_TIMES, eta, healthy, policy.transmissivity_threshold, at=at
        )
        suppressed = counter.value - before
        if at is None:
            got_eta, got_usable, got_up = (x.reshape(-1) for x in (got_eta, got_usable, got_up))

        before = counter.value
        for i, (r, c) in enumerate(zip(rows.tolist(), cols.tolist())):
            t = float(NET_TIMES[c])
            want_eta, want_usable = p.apply_channel(channels[r], states[r][c], t, policy)
            assert got_eta[i] == want_eta  # bit-equal, not approx
            assert bool(got_usable[i]) is want_usable
            a, b, _ = edges[r]
            down = p.node_down(a, t) or p.node_down(b, t) or p.link_cut(a, b, t)
            assert bool(got_up[i]) is not down
        assert suppressed == counter.value - before > 0

    def test_every_event_kind_acts(self, mixed):
        """The case is not vacuous: each event suppresses some link."""
        network, p, states = mixed
        policy = LinkPolicy()
        hit = set()
        for ch, row in zip(network.channels(), states):
            for t, state in zip(NET_TIMES.tolist(), row):
                if state.usable and not p.apply_channel(ch, state, t, policy)[1]:
                    a, b, site = FaultPlane.edge(ch)
                    hit.update(e for e in p.active_events(t) if _acts_on(e, a, b, site))
        assert {type(e).__name__ for e in hit} == {
            "SatelliteOutage",
            "GroundStationDowntime",
            "LinkFlap",
            "WeatherFade",
        }

    def test_untouched_block_is_up(self, mixed):
        _, p, _ = mixed
        edges = [("epb-3", "hap-0", "epb-3"), ("sat-003", "sat-005", None)]
        eta, healthy = np.full((2, NET_TIMES.size), 0.9), np.ones((2, NET_TIMES.size), bool)
        assert not any(p.touches(edge) for edge in edges)
        got_eta, got_usable, got_up = p.apply_edges(edges, NET_TIMES, eta, healthy, 0.7)
        assert got_up is True
        assert got_eta is eta and got_usable is healthy
        # A fade alone leaves the node/link gate untouched too.
        faded = [("ttu-0", "hap-0", "ttu-0")]
        faded_eta, _, up = p.apply_edges(faded, NET_TIMES, eta[:1], healthy[:1], 0.7)
        assert up is True and (faded_eta < eta[:1]).any()


class TestNoopPlane:
    def test_empty_is_noop(self):
        assert FaultPlane().is_noop
        assert not plane().is_noop

    def test_noop_answers_identity(self):
        p = FaultPlane()
        assert not p.node_down("x", 0.0)
        assert not p.link_cut("x", "y", 0.0)
        assert p.fade_factor("x", 0.0) == 1.0
        eta, healthy = np.full((1, TIMES.size), 0.9), np.ones((1, TIMES.size), bool)
        got_eta, usable, up = p.apply_edges([("x", "y", "x")], TIMES, eta, healthy, 0.7)
        assert got_eta is eta and usable is healthy and up is True

    def test_zero_length_event_plane_is_inert(self):
        p = FaultPlane((SatelliteOutage(100.0, 100.0, satellite="sat-000"),))
        assert not p.is_noop  # it has an event...
        eta, healthy = np.full((1, TIMES.size), 0.9), np.ones((1, TIMES.size), bool)
        _, usable, up = p.apply_edges([("sat-000", "ttu-0", "ttu-0")], TIMES, eta, healthy, 0.7)
        assert up.all() and usable.all()  # ...but the event covers no sample


class TestFaultedSiteBudget:
    def test_monotone_and_healthy_mask(self, healthy_table, small_ephemeris, policy):
        site = healthy_table.site_names[0]
        healthy = healthy_table.budget(site)
        p = FaultSchedule(
            events=(
                WeatherFade(0.0, 7200.0, site=site, extra_db=6.0),
                SatelliteOutage(0.0, 3600.0, satellite="sat-004"),
            )
        ).compile()
        faulted = p.faulted_site_budget(healthy, small_ephemeris, policy)
        assert np.all(faulted.transmissivity <= healthy.transmissivity)
        assert not np.any(faulted.usable & ~healthy.usable)
        np.testing.assert_array_equal(faulted.usable_healthy, healthy.points["usable"])
        np.testing.assert_array_equal(faulted.healthy_usable, healthy.usable)
        assert healthy.usable_healthy is None
        assert healthy.healthy_usable is healthy.usable

    def test_noop_returns_same_object(self, healthy_table, small_ephemeris, policy):
        healthy = healthy_table.budget(healthy_table.site_names[0])
        assert FaultPlane().faulted_site_budget(healthy, small_ephemeris, policy) is healthy

    def test_outage_kills_platform_row(self, healthy_table, small_ephemeris, policy):
        site = healthy_table.site_names[0]
        healthy = healthy_table.budget(site)
        row = list(small_ephemeris.names).index("sat-004")
        p = FaultSchedule(
            events=(SatelliteOutage(0.0, 1e9, satellite="sat-004"),)
        ).compile()
        faulted = p.faulted_site_budget(healthy, small_ephemeris, policy)
        assert not faulted.usable[row].any()
        other = [i for i in range(len(small_ephemeris.names)) if i != row]
        np.testing.assert_array_equal(faulted.usable[other], healthy.usable[other])
