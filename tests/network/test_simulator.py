"""Tests for the network simulation driver."""

import math

import numpy as np
import pytest

from repro.errors import UnknownHostError, ValidationError
from repro.network.simulator import NetworkSimulator
from repro.quantum.fidelity import entanglement_fidelity_from_transmissivity
from repro.serve import build_engine


class TestHapService:
    def test_inter_lan_request_served_via_hap(self, hap_simulator):
        out = hap_simulator.serve_request("ttu-0", "epb-3", 0.0)
        assert out.served
        assert out.path[0] == "ttu-0"
        assert out.path[-1] == "epb-3"
        assert "hap-0" in out.path
        assert 0.9 < out.path_eta < 1.0

    def test_fidelity_near_paper_value(self, hap_simulator):
        outs = [
            hap_simulator.serve_request(src, dst, 0.0)
            for src, dst in [("ttu-0", "epb-0"), ("ttu-2", "ornl-5"), ("epb-9", "ornl-1")]
        ]
        mean_f = np.mean([o.fidelity for o in outs])
        assert mean_f == pytest.approx(0.98, abs=0.01)

    def test_intra_lan_request_uses_fiber(self, hap_simulator):
        out = hap_simulator.serve_request("ttu-0", "ttu-1", 0.0)
        assert out.served
        assert out.path == ("ttu-0", "ttu-1")
        assert out.fidelity > 0.99

    def test_fidelity_matches_closed_form(self, hap_simulator):
        out = hap_simulator.serve_request("ttu-0", "ornl-3", 0.0)
        expected = float(entanglement_fidelity_from_transmissivity(out.path_eta))
        assert out.fidelity == pytest.approx(expected)

    def test_track_states_agrees_with_closed_form(self, hap_simulator):
        tracked = NetworkSimulator(hap_simulator.network, track_states=True)
        out = tracked.serve_request("ttu-0", "epb-3", 0.0)
        assert out.pair is not None
        fast = hap_simulator.serve_request("ttu-0", "epb-3", 0.0)
        assert out.fidelity == pytest.approx(fast.fidelity, abs=1e-9)
        assert out.path == fast.path

    def test_unknown_hosts_rejected(self, hap_simulator):
        cached = NetworkSimulator(hap_simulator.network, use_cache=True)
        for simulator in (hap_simulator, cached):
            for call in (simulator.serve_request, simulator.denial_cause):
                with pytest.raises(UnknownHostError):
                    call("nope", "epb-0", 0.0)
                with pytest.raises(UnknownHostError):
                    call("ttu-0", "nope", 0.0)

    def test_all_lans_connected(self, hap_simulator):
        assert hap_simulator.all_lans_connected(0.0)
        assert hap_simulator.lans_connected("ttu", "epb", 0.0)

    def test_batch_matches_individual(self, hap_simulator):
        requests = [("ttu-0", "epb-3"), ("ornl-1", "ttu-2"), ("epb-5", "ornl-9")]
        batch = hap_simulator.serve_requests(requests, 0.0)
        singles = [hap_simulator.serve_request(s, d, 0.0) for s, d in requests]
        for b, s in zip(batch, singles):
            assert b.served == s.served
            assert b.path == s.path
            assert b.fidelity == pytest.approx(s.fidelity)


@pytest.mark.parametrize("kind", ["cached", "direct"])
@pytest.mark.parametrize("t_s", [math.nan, math.inf, -math.inf])
def test_non_finite_request_time_rejected(kind, t_s, small_ephemeris):
    # A NaN time used to be served at the last grid sample with
    # t_s=nan; both engines must refuse it at entry instead.
    simulator = build_engine(kind, small_ephemeris).simulator
    with pytest.raises(ValidationError):
        simulator.serve_request("ttu-0", "ornl-0", t_s)
    with pytest.raises(ValidationError):
        simulator.serve_requests([("ttu-0", "ornl-0")], t_s)
    with pytest.raises(ValidationError):
        simulator.denial_cause("ttu-0", "ornl-0", t_s)


@pytest.mark.parametrize("kind", ["cached", "direct"])
@pytest.mark.parametrize("t_s", [math.nan, math.inf, -math.inf])
def test_non_finite_query_time_rejected(kind, t_s, small_ephemeris):
    # A NaN query time used to answer for the last grid sample on the
    # cached engine (and build a graph on the direct one).
    simulator = build_engine(kind, small_ephemeris).simulator
    with pytest.raises(ValidationError):
        simulator.link_graph(t_s)
    with pytest.raises(ValidationError):
        simulator.lans_connected("ttu", "epb", t_s)
    with pytest.raises(ValidationError):
        simulator.all_lans_connected(t_s)


def test_link_state_time_index_rejects_nan(small_ephemeris):
    linkstate = build_engine("cached", small_ephemeris).simulator.linkstate
    for lookup in (linkstate.time_index, linkstate.advance_index, linkstate.graph):
        with pytest.raises(ValidationError):
            lookup(math.nan)
    # Out-of-range finite and infinite times still clamp.
    assert linkstate.time_index(-math.inf) == 0
    assert linkstate.time_index(math.inf) == linkstate.n_times - 1


class TestSatelliteService:
    def test_unserved_when_no_satellite_overhead(self, sat_simulator_small):
        """With only 12 satellites most instants have no relay available."""
        outcomes = [
            sat_simulator_small.serve_request("ttu-0", "epb-0", float(t))
            for t in range(0, 7200, 600)
        ]
        unserved = [o for o in outcomes if not o.served]
        assert unserved, "expected at least one uncovered instant"
        out = unserved[0]
        assert out.path == ()
        assert out.path_eta == 0.0
        assert math.isnan(out.fidelity)

    def test_served_requests_route_through_a_satellite(self, sat_simulator_small):
        served = [
            o
            for t in range(0, 7200, 300)
            if (o := sat_simulator_small.serve_request("ttu-0", "ornl-0", float(t))).served
        ]
        for o in served:
            assert len(o.path) == 3
            relay = o.path[1]
            assert sat_simulator_small.network.host(relay).kind == "satellite"
            assert o.fidelity > 0.5

    def test_graph_cache_invalidation(self, sat_simulator_small):
        g1 = sat_simulator_small.link_graph(0.0)
        assert sat_simulator_small.link_graph(0.0) is g1
        sat_simulator_small.invalidate_cache()
        assert sat_simulator_small.link_graph(0.0) is not g1
