"""Tests for the event-driven Poisson workload."""

import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.network.events import EventTimeline
from repro.network.workload import (
    TimedRequest,
    WorkloadReport,
    align_to_grid,
    lans_from_sites,
    poisson_request_stream,
    run_poisson_workload,
)
from repro.utils.seeding import as_generator


class TestPoissonWorkloadHap:
    def test_all_served_on_hap_network(self, hap_simulator):
        report = run_poisson_workload(
            hap_simulator, rate_hz=0.05, duration_s=600.0, seed=3
        )
        assert report.n_requests > 0
        assert report.served_fraction == 1.0
        assert report.mean_fidelity == pytest.approx(0.98, abs=0.01)

    def test_arrival_count_near_expectation(self, hap_simulator):
        report = run_poisson_workload(
            hap_simulator, rate_hz=0.1, duration_s=3600.0, seed=4
        )
        expected = 0.1 * 3600.0
        assert expected * 0.5 < report.n_requests < expected * 1.5

    def test_deterministic_given_seed(self, hap_simulator):
        a = run_poisson_workload(hap_simulator, rate_hz=0.05, duration_s=600.0, seed=9)
        b = run_poisson_workload(hap_simulator, rate_hz=0.05, duration_s=600.0, seed=9)
        assert [o.path for o in a.outcomes] == [o.path for o in b.outcomes]
        assert [o.t_s for o in a.outcomes] == [o.t_s for o in b.outcomes]

    def test_endpoints_cross_lans(self, hap_simulator):
        report = run_poisson_workload(
            hap_simulator, rate_hz=0.05, duration_s=1200.0, seed=5
        )
        members = hap_simulator.network.local_networks

        def lan_of(node: str) -> str:
            return next(lan for lan, nodes in members.items() if node in nodes)

        for outcome in report.outcomes:
            assert lan_of(outcome.source) != lan_of(outcome.destination)

    def test_arrival_times_increasing_within_horizon(self, hap_simulator):
        report = run_poisson_workload(
            hap_simulator, rate_hz=0.05, duration_s=900.0, seed=6
        )
        times = [o.t_s for o in report.outcomes]
        assert times == sorted(times)
        assert all(0.0 < t < 900.0 for t in times)


class TestPoissonWorkloadSatellites:
    def test_partial_service_under_sparse_constellation(self, sat_simulator_small):
        report = run_poisson_workload(
            sat_simulator_small, rate_hz=0.01, duration_s=7200.0, seed=7
        )
        # 12 satellites leave most arrivals unserved.
        assert 0.0 <= report.served_fraction < 1.0
        if report.served_fraction == 0.0:
            assert math.isnan(report.mean_fidelity)


class TestWorkloadValidation:
    def test_rejects_bad_rate(self, hap_simulator):
        with pytest.raises(ValidationError):
            run_poisson_workload(hap_simulator, rate_hz=0.0, duration_s=10.0)

    def test_rejects_bad_duration(self, hap_simulator):
        with pytest.raises(ValidationError):
            run_poisson_workload(hap_simulator, rate_hz=1.0, duration_s=0.0)

    def test_empty_report_statistics(self):
        report = WorkloadReport((), 100.0)
        assert math.isnan(report.served_fraction)
        assert math.isnan(report.mean_fidelity)
        assert report.arrival_rate_hz == 0.0


def _legacy_poisson_workload(simulator, *, rate_hz, duration_s, seed):
    """The pre-refactor implementation, verbatim in spirit: closures over
    ``(at, src, dst)`` captured through default arguments, one exponential
    gap then one endpoint draw per arrival, scheduled on an EventTimeline.
    Kept here as the regression oracle for the record-based rewrite."""
    rng = as_generator(seed)
    lans = simulator.network.local_networks
    names = list(lans)
    all_nodes = [(lan, node) for lan in names for node in lans[lan]]
    timeline = EventTimeline()
    outcomes = []

    def draw_pair():
        src_lan, src = all_nodes[int(rng.integers(len(all_nodes)))]
        others = [(lan, node) for lan, node in all_nodes if lan != src_lan]
        _, dst = others[int(rng.integers(len(others)))]
        return src, dst

    t = float(rng.exponential(1.0 / rate_hz))
    while t < duration_s:
        src, dst = draw_pair()

        def serve(at=t, source=src, destination=dst):
            outcomes.append(simulator.serve_request(source, destination, at))

        timeline.schedule(t, serve)
        t += float(rng.exponential(1.0 / rate_hz))
    timeline.run()
    return WorkloadReport(tuple(outcomes), duration_s)


class TestLegacyRegression:
    """The record-based rewrite reproduces the closure-based outputs."""

    @pytest.mark.parametrize("seed", [0, 3, 9, 1234])
    def test_outputs_pinned_to_legacy(self, hap_simulator, seed):
        new = run_poisson_workload(
            hap_simulator, rate_hz=0.05, duration_s=900.0, seed=seed
        )
        old = _legacy_poisson_workload(
            hap_simulator, rate_hz=0.05, duration_s=900.0, seed=seed
        )
        assert new.n_requests == old.n_requests
        for a, b in zip(new.outcomes, old.outcomes):
            assert a.t_s == b.t_s
            assert (a.source, a.destination) == (b.source, b.destination)
            assert a.served == b.served
            assert a.path == b.path

    @pytest.mark.parametrize("seed", [3, 77])
    def test_stream_matches_legacy_arrivals(self, hap_simulator, seed):
        stream = poisson_request_stream(
            hap_simulator.network.local_networks,
            rate_hz=0.05,
            duration_s=900.0,
            seed=seed,
        )
        old = _legacy_poisson_workload(
            hap_simulator, rate_hz=0.05, duration_s=900.0, seed=seed
        )
        assert [r.t_s for r in stream] == [o.t_s for o in old.outcomes]
        assert [r.endpoints for r in stream] == [
            (o.source, o.destination) for o in old.outcomes
        ]


class TestPoissonRequestStream:
    def test_identity_and_ordering(self, hap_simulator):
        stream = poisson_request_stream(
            hap_simulator.network.local_networks,
            rate_hz=0.1,
            duration_s=600.0,
            seed=5,
        )
        assert [r.request_id for r in stream] == list(range(len(stream)))
        assert all(a.t_s <= b.t_s for a, b in zip(stream, stream[1:]))
        assert all(r.tenant == "default" for r in stream)

    def test_single_tenant_stream_is_tenant_invariant(self, hap_simulator):
        """A one-entry tenant tuple draws nothing from the RNG."""
        lans = hap_simulator.network.local_networks
        kwargs = dict(rate_hz=0.1, duration_s=600.0, seed=5)
        default = poisson_request_stream(lans, **kwargs)
        named = poisson_request_stream(lans, tenants=("gold",), **kwargs)
        assert [(r.t_s, r.endpoints) for r in default] == [
            (r.t_s, r.endpoints) for r in named
        ]
        assert all(r.tenant == "gold" for r in named)

    def test_multi_tenant_labels_drawn_from_offered_set(self, hap_simulator):
        stream = poisson_request_stream(
            hap_simulator.network.local_networks,
            rate_hz=0.2,
            duration_s=600.0,
            seed=5,
            tenants=("a", "b"),
        )
        assert {r.tenant for r in stream} == {"a", "b"}

    def test_validation(self, hap_simulator):
        lans = hap_simulator.network.local_networks
        with pytest.raises(ValidationError):
            poisson_request_stream(lans, rate_hz=0.0, duration_s=10.0)
        with pytest.raises(ValidationError):
            poisson_request_stream(lans, rate_hz=1.0, duration_s=0.0)
        with pytest.raises(ValidationError):
            poisson_request_stream(lans, rate_hz=1.0, duration_s=10.0, tenants=())
        with pytest.raises(ValidationError):
            poisson_request_stream({"only": ["a"]}, rate_hz=1.0, duration_s=10.0)


class TestAlignToGrid:
    def test_snaps_to_most_recent_sample(self):
        grid = np.array([0.0, 60.0, 120.0])
        requests = (
            TimedRequest(0, -5.0, "a", "b"),
            TimedRequest(1, 59.9, "a", "b"),
            TimedRequest(2, 60.0, "a", "b"),
            TimedRequest(3, 500.0, "a", "b"),
        )
        aligned = align_to_grid(requests, grid)
        assert [r.t_s for r in aligned] == [0.0, 0.0, 60.0, 120.0]
        assert [r.request_id for r in aligned] == [0, 1, 2, 3]
        assert all(a.endpoints == b.endpoints for a, b in zip(requests, aligned))


class TestLansFromSites:
    def test_first_seen_order_and_membership(self):
        class Site:
            def __init__(self, name, network):
                self.name = name
                self.network = network

        sites = [Site("x1", "X"), Site("y1", "Y"), Site("x2", "X")]
        lans = lans_from_sites(sites)
        assert list(lans) == ["X", "Y"]
        assert lans == {"X": ["x1", "x2"], "Y": ["y1"]}

    def test_round_trips_the_simulator_lans(self, hap_simulator):
        from repro.data.ground_nodes import all_ground_nodes

        lans = lans_from_sites(all_ground_nodes())
        assert lans == {
            lan: list(nodes)
            for lan, nodes in hap_simulator.network.local_networks.items()
        }
