"""Tests for the vectorized analysis engines, including the equivalence of
the array fast path with the object-level simulator."""

import math

import numpy as np
import pytest

from repro.channels.presets import paper_hap_fso, paper_satellite_fso
from repro.constants import QNTN_HAP_ALTITUDE_KM, QNTN_HAP_LAT_DEG, QNTN_HAP_LON_DEG
from repro.core.analysis import AirGroundAnalysis, SpaceGroundAnalysis
from repro.data.ground_nodes import all_ground_nodes
from repro.errors import ValidationError


class TestSpaceGroundAnalysis:
    def test_budget_shapes(self, sat_analysis_small):
        budget = sat_analysis_small.budget("ttu-0")
        assert budget.transmissivity.shape == (12, 120)
        assert budget.usable.dtype == bool

    def test_budget_cached(self, sat_analysis_small):
        assert sat_analysis_small.budget("ttu-0") is sat_analysis_small.budget("ttu-0")

    def test_usable_implies_policy(self, sat_analysis_small):
        budget = sat_analysis_small.budget("epb-0")
        policy = sat_analysis_small.policy
        assert np.all(
            budget.transmissivity[budget.usable] >= policy.transmissivity_threshold
        )
        assert np.all(budget.elevation_rad[budget.usable] >= policy.min_elevation_rad)

    def test_lans_discovered(self, sat_analysis_small):
        assert sat_analysis_small.lans == ["ttu", "epb", "ornl"]

    def test_lan_usable_is_or_of_members(self, sat_analysis_small):
        lan_mask = sat_analysis_small.lan_usable("ttu")
        member_masks = [
            sat_analysis_small.budget(s.name).usable
            for s in sat_analysis_small.lan_sites("ttu")
        ]
        np.testing.assert_array_equal(lan_mask, np.logical_or.reduce(member_masks))

    def test_all_pairs_connected_subset_of_each_pair(self, sat_analysis_small):
        allp = sat_analysis_small.all_pairs_connected()
        for a, b in (("ttu", "epb"), ("ttu", "ornl"), ("epb", "ornl")):
            pair = sat_analysis_small.pair_connected(a, b)
            assert np.all(~allp | pair)

    def test_unknown_site_rejected(self, sat_analysis_small):
        with pytest.raises(ValidationError):
            sat_analysis_small.budget("nope")
        with pytest.raises(ValidationError):
            sat_analysis_small.lan_sites("nope")

    def test_requires_named_lans(self, small_ephemeris):
        from repro.data.ground_nodes import GroundNode

        nodes = [GroundNode("x", 36.0, -85.0, 0.0, "")]
        with pytest.raises(ValidationError):
            SpaceGroundAnalysis(small_ephemeris, nodes, paper_satellite_fso())

    def test_best_relay_none_when_uncovered(self, sat_analysis_small):
        hits = [
            sat_analysis_small.best_relay("ttu-0", "epb-0", t)
            for t in range(sat_analysis_small.n_times)
        ]
        assert any(h is None for h in hits)

    def test_best_relay_transmissivity_is_product(self, sat_analysis_small):
        for t in range(sat_analysis_small.n_times):
            hit = sat_analysis_small.best_relay("ttu-0", "epb-0", t)
            if hit is not None:
                sat_idx, eta = hit
                bs = sat_analysis_small.budget("ttu-0")
                bd = sat_analysis_small.budget("epb-0")
                assert eta == pytest.approx(
                    bs.transmissivity[sat_idx, t] * bd.transmissivity[sat_idx, t]
                )
                break

    def test_matches_object_level_simulator(
        self, sat_analysis_small, sat_simulator_small, small_ephemeris
    ):
        """The array fast path reproduces Bellman–Ford over real objects."""
        pairs = [("ttu-0", "epb-0"), ("ornl-3", "ttu-2"), ("epb-7", "ornl-10")]
        for t_idx in range(0, 120, 10):
            t_s = float(small_ephemeris.times_s[t_idx])
            fast = sat_analysis_small.serve(pairs, t_idx)
            for (src, dst), eta_fast in zip(pairs, fast):
                outcome = sat_simulator_small.serve_request(src, dst, t_s)
                if eta_fast is None:
                    assert not outcome.served
                else:
                    assert outcome.served
                    assert outcome.path_eta == pytest.approx(eta_fast, rel=1e-9)


class TestAirGroundAnalysis:
    def _analysis(self, **kwargs):
        defaults = dict(
            hap_lat_deg=QNTN_HAP_LAT_DEG,
            hap_lon_deg=QNTN_HAP_LON_DEG,
            hap_alt_km=QNTN_HAP_ALTITUDE_KM,
        )
        defaults.update(kwargs)
        return AirGroundAnalysis(list(all_ground_nodes()), paper_hap_fso(), **defaults)

    def test_all_sites_usable(self):
        analysis = self._analysis()
        assert all(analysis.usable(s.name) for s in analysis.sites)

    def test_transmissivities_near_paper_regime(self):
        analysis = self._analysis()
        etas = [analysis.transmissivity(s.name) for s in analysis.sites]
        assert min(etas) > 0.9
        assert max(etas) < 1.0

    def test_full_coverage_when_always_on(self):
        analysis = self._analysis(times_s=np.arange(10.0))
        assert analysis.all_pairs_connected().all()

    def test_duty_cycle_limits_coverage(self):
        times = np.arange(10.0)
        mask = times < 5.0
        analysis = self._analysis(times_s=times, operational_mask=mask)
        np.testing.assert_array_equal(analysis.all_pairs_connected(), mask)

    def test_serve_products(self):
        analysis = self._analysis()
        (eta,) = analysis.serve([("ttu-0", "epb-0")], 0)
        assert eta == pytest.approx(
            analysis.transmissivity("ttu-0") * analysis.transmissivity("epb-0")
        )

    def test_serve_respects_duty_cycle(self):
        times = np.arange(4.0)
        mask = np.array([True, False, True, False])
        analysis = self._analysis(times_s=times, operational_mask=mask)
        assert analysis.serve([("ttu-0", "epb-0")], 0)[0] is not None
        assert analysis.serve([("ttu-0", "epb-0")], 1)[0] is None

    def test_matches_object_level_simulator(self, hap_simulator):
        analysis = self._analysis()
        (eta,) = analysis.serve([("ttu-0", "epb-3")], 0)
        outcome = hap_simulator.serve_request("ttu-0", "epb-3", 0.0)
        assert outcome.path_eta == pytest.approx(eta, rel=1e-9)

    def test_unknown_site(self):
        with pytest.raises(ValidationError):
            self._analysis().transmissivity("nope")

    def test_mask_shape_validation(self):
        with pytest.raises(ValidationError):
            self._analysis(times_s=np.arange(3.0), operational_mask=np.ones(4, dtype=bool))
