"""Cached-vs-direct simulator equivalence (the cache's acceptance gate).

A 12-satellite day: the cached :class:`NetworkSimulator` must reproduce
the direct scalar simulator's :class:`RequestOutcome` stream — ``served``,
``path`` and ``t_s`` exactly, ``path_eta`` and ``fidelity``
to 1e-12 (the two paths differ only in einsum-vs-matmul rounding).
The three denial-cause cascades (the sweep's ``request_detail``, the
cached link-state gates and the direct scalar cascade) name one cause.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.channels.presets import paper_hap_fso, paper_satellite_fso
from repro.core.analysis import SpaceGroundAnalysis
from repro.core.evaluation import evaluate_requests
from repro.core.requests import generate_requests
from repro.core.sweeps import run_constellation_sweep
from repro.data.ground_nodes import all_ground_nodes
from repro.engine.store import ArtifactStore, set_default_store
from repro.faults import load_faults
from repro.network.hap import HAP
from repro.network.simulator import NetworkSimulator
from repro.network.topology import attach_hap, attach_satellites, build_qntn_ground_network
from repro.network.workload import align_to_grid, lans_from_sites, poisson_request_stream
from repro.orbits.ephemeris import generate_movement_sheet
from repro.orbits.walker import qntn_constellation
from repro.serve import build_engine
from tests.core.prefix_coverage import prefix_coverage

TOL = 1e-12

EXAMPLE_FAULTS = Path(__file__).parents[2] / "benchmarks" / "results" / "example_faults.json"


def assert_outcomes_equivalent(direct, cached):
    assert direct.source == cached.source
    assert direct.destination == cached.destination
    assert direct.t_s == cached.t_s
    assert direct.served == cached.served
    assert direct.path == cached.path
    if direct.served:
        assert cached.path_eta == pytest.approx(
            direct.path_eta, abs=TOL
        )
        assert cached.fidelity == pytest.approx(direct.fidelity, abs=TOL)
    else:
        assert direct.path_eta == cached.path_eta == 0.0
        assert math.isnan(direct.fidelity) and math.isnan(cached.fidelity)


@pytest.fixture(scope="module")
def day_network_12():
    """A 12-satellite, full-day network at 900 s cadence (97 samples)."""
    ephemeris = generate_movement_sheet(
        qntn_constellation(12), duration_s=86400.0, step_s=900.0
    )
    network = build_qntn_ground_network()
    attach_satellites(network, ephemeris, paper_satellite_fso())
    return network, ephemeris


@pytest.fixture(scope="module")
def workload(sites):
    return [r.endpoints for r in generate_requests(sites, 100, 7)]


class TestSatelliteDayEquivalence:
    def test_outcomes_identical_over_day(self, day_network_12, workload):
        network, ephemeris = day_network_12
        direct = NetworkSimulator(network)
        cached = NetworkSimulator(network, use_cache=True)
        n_served = 0
        for t in ephemeris.times_s:
            for d, c in zip(
                direct.serve_requests(workload, float(t)),
                cached.serve_requests(workload, float(t)),
            ):
                assert_outcomes_equivalent(d, c)
                n_served += d.served
        assert n_served > 0, "day sweep should serve some requests"

    def test_single_request_off_grid_time(self, day_network_12):
        network, ephemeris = day_network_12
        direct = NetworkSimulator(network)
        cached = NetworkSimulator(network, use_cache=True)
        t = float(ephemeris.times_s[5]) + 123.4
        assert_outcomes_equivalent(
            direct.serve_request("ttu-0", "epb-3", t),
            cached.serve_request("ttu-0", "epb-3", t),
        )

    def test_lans_connected_matches(self, day_network_12):
        network, ephemeris = day_network_12
        direct = NetworkSimulator(network)
        cached = NetworkSimulator(network, use_cache=True)
        for t in ephemeris.times_s[::16]:
            assert direct.lans_connected("TTU", "EPB", float(t)) == cached.lans_connected(
                "TTU", "EPB", float(t)
            )


class TestHapEquivalence:
    def test_hap_outcomes_identical(self, workload):
        network = build_qntn_ground_network()
        attach_hap(network, HAP(), paper_hap_fso())
        direct = NetworkSimulator(network)
        cached = NetworkSimulator(network, use_cache=True)
        for d, c in zip(
            direct.serve_requests(workload, 0.0), cached.serve_requests(workload, 0.0)
        ):
            assert_outcomes_equivalent(d, c)


class TestEvaluationEquivalence:
    def test_evaluate_requests_cached_matches_direct(self, day_network_12, sites):
        network, _ = day_network_12
        requests = generate_requests(sites, 40, 11)
        # Evaluate at every ephemeris sample so the 12-satellite day's few
        # serving windows are included and the fidelity lists are non-empty.
        direct = evaluate_requests(NetworkSimulator(network), requests, n_time_steps=100)
        cached = evaluate_requests(
            NetworkSimulator(network, use_cache=True), requests, n_time_steps=100
        )
        assert direct.served_per_step == cached.served_per_step
        assert direct.n_time_steps == cached.n_time_steps
        assert len(direct.fidelities) > 0
        np.testing.assert_allclose(direct.fidelities, cached.fidelities, atol=TOL)
        assert cached.served_fraction == pytest.approx(direct.served_fraction, abs=TOL)
        assert cached.mean_fidelity == pytest.approx(
            direct.mean_fidelity, abs=TOL, nan_ok=True
        )


class TestSweepEquivalence:
    def test_constellation_sweep_cached_matches_direct(self, tmp_path):
        """A sweep through a cold and a warm artifact store equals one
        without a store, point for point."""
        kwargs = dict(duration_s=7200.0, step_s=120.0, n_requests=20, n_time_steps=10)
        previous = set_default_store(None)
        try:
            direct = run_constellation_sweep([6, 12], **kwargs)
        finally:
            set_default_store(previous)
        store = ArtifactStore(tmp_path)
        cold = run_constellation_sweep([6, 12], store=store, **kwargs)
        warm_store = ArtifactStore(tmp_path)
        warm = run_constellation_sweep([6, 12], store=warm_store, **kwargs)
        assert store.stats.writes > 0 and warm_store.stats.misses == 0
        assert warm_store.stats.hits > 0 and warm_store.stats.rebuilds == 0
        for sweep in (cold, warm):
            assert sweep.sizes == direct.sizes
            for c, d in zip(sweep.points, direct.points):
                assert c.coverage == d.coverage
                assert c.service == d.service

    def test_coverage_sweep_cached_matches_direct(self, sites):
        """The sweep's cached prefix coverage equals the per-size oracle."""
        ephemeris = generate_movement_sheet(
            qntn_constellation(12), duration_s=7200.0, step_s=120.0
        )
        cached = run_constellation_sweep(
            [6, 12],
            sites=sites,
            ephemeris=ephemeris,
            duration_s=7200.0,
            n_requests=2,
            n_time_steps=2,
        )
        direct = prefix_coverage(ephemeris, [6, 12], sites, horizon_s=7200.0)
        assert [point.coverage for point in cached.points] == direct


class TestCauseCascades:
    @pytest.mark.parametrize("faulted", [False, True], ids=["healthy", "faulted"])
    def test_three_cascades_agree_on_denials(self, faulted, sites):
        """Over every denial of a seeded 2-hour, 108-satellite stream,
        ``request_detail``'s cause and visible count equal the cached
        ``denial_gates``/``denial_cause`` and the direct
        ``_attribute_denial``: one horizon rule (``el > 0``) behind all
        three. Some denials see a satellite at 0 < el <= 1e-3 at one end,
        which a second, higher cut would drop from the visible count."""
        ephemeris = generate_movement_sheet(
            qntn_constellation(108), duration_s=7200.0, step_s=30.0
        )
        plane = (
            load_faults(EXAMPLE_FAULTS).realize(seed=7, horizon_s=86400.0).compile()
            if faulted
            else None
        )
        stream = align_to_grid(
            poisson_request_stream(
                lans_from_sites(sites), rate_hz=0.05, duration_s=7200.0, seed=3
            ),
            ephemeris.times_s,
        )
        cached = build_engine("cached", ephemeris, faults=plane, attribute_denials=False)
        direct = build_engine("direct", ephemeris, faults=plane).simulator
        analysis = SpaceGroundAnalysis(ephemeris, sites, paper_satellite_fso(), faults=plane)
        sim = cached.simulator
        denied = [o for o in cached.serve_batch(stream) if not o.served]
        causes = set()
        near_horizon = 0
        for o in denied:
            k = int(np.searchsorted(ephemeris.times_s, o.t_s))
            assert ephemeris.times_s[k] == o.t_s
            detail = analysis.request_detail(o.source, o.destination, k)
            cause, _, counts = direct._attribute_denial(o.source, o.destination, o.t_s, 0)
            visible, elevated, _, _ = sim.linkstate.denial_gates(o.source, o.destination, k)
            assert not detail["served"]
            assert detail["cause"] == cause == sim.denial_cause(o.source, o.destination, o.t_s)
            assert detail["candidate_counts"]["visible"] == counts["visible"]
            assert detail["candidate_counts"]["elevation_ok"] == counts["elevation_ok"]
            assert visible == (counts["visible"] > 0)
            assert elevated == (counts["elevation_ok"] > 0)
            causes.add(cause)
            el_s = analysis.budget(o.source).elevation_rad[:, k]
            el_d = analysis.budget(o.destination).elevation_rad[:, k]
            low = np.minimum(el_s, el_d)
            near_horizon += bool(np.any((low > 0.0) & (low <= 1e-3)))
        assert len(denied) > 50 and len(causes) >= 2
        assert near_horizon > 0, "the stream reaches a near-horizon candidate"
