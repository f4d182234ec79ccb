"""Tests for the compiled FaultPlane: scalar vs vectorized query agreement."""

from types import SimpleNamespace

import numpy as np

from repro.faults import (
    FaultPlane,
    FaultSchedule,
    GroundStationDowntime,
    LinkFlap,
    SatelliteOutage,
    WeatherFade,
)

TIMES = np.arange(0.0, 600.0, 30.0)


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

    def test_attenuation_factor_alias(self):
        p = plane()
        assert p.attenuation_factor("ttu-0", 180.0) == p.fade_factor("ttu-0", 180.0)

    def test_unfaded_site_is_exactly_one(self):
        assert plane().fade_factor("ornl-0", 180.0) == 1.0


class TestVectorizedQueries:
    def test_node_up_series_matches_scalar(self):
        p = plane()
        series = p.node_up_series("sat-000", TIMES)
        assert isinstance(series, np.ndarray)
        expected = np.array([not p.node_down("sat-000", float(t)) for t in TIMES])
        np.testing.assert_array_equal(series, expected)

    def test_link_ok_series_matches_scalar(self):
        p = plane()
        series = p.link_ok_series("sat-002", "ornl-0", TIMES)
        expected = np.array([not p.link_cut("ornl-0", "sat-002", float(t)) for t in TIMES])
        np.testing.assert_array_equal(series, expected)

    def test_fade_factor_series_matches_scalar_bitwise(self):
        p = plane()
        series = p.fade_factor_series("ttu-0", TIMES)
        expected = np.array([p.fade_factor("ttu-0", float(t)) for t in TIMES])
        # Bit-identical, not approx: scalar and vectorized paths multiply
        # the same precomputed factors in the same order.
        np.testing.assert_array_equal(series, expected)

    def test_edge_up_series_matches_scalar(self):
        """Both endpoints up and the link not cut: the gate
        ``apply_channel`` applies per sample."""
        p = plane()
        for a, b in [("ornl-0", "sat-002"), ("ttu-0", "sat-000"), ("epb-1", "sat-000")]:
            series = p.edge_up_series(SimpleNamespace(names=(a, b)), TIMES)
            expected = np.array(
                [
                    not (p.node_down(a, t) or p.node_down(b, t) or p.link_cut(a, b, t))
                    for t in TIMES.tolist()
                ]
            )
            np.testing.assert_array_equal(series, expected)

    def test_untouched_targets_return_scalar_sentinels(self):
        p = plane()
        assert p.node_up_series("sat-011", TIMES) is True
        assert p.link_ok_series("a", "b", TIMES) is True
        assert p.edge_up_series(SimpleNamespace(names=("a", "b")), TIMES) is True
        assert p.fade_factor_series("ornl-0", TIMES) == 1.0

    def test_platform_up_matrix(self):
        p = plane()
        names = ["sat-000", "sat-001", "sat-002"]
        up = p.platform_up_matrix(names, TIMES)
        assert up.shape == (3, TIMES.size)
        np.testing.assert_array_equal(up[0], p.node_up_series("sat-000", TIMES))
        assert up[1].all() and up[2].all()

    def test_platform_up_matrix_scalar_when_untouched(self):
        assert plane().platform_up_matrix(["sat-005", "sat-006"], TIMES) is True

    def test_link_ok_matrix(self):
        p = plane()
        names = ["sat-001", "sat-002"]
        ok = p.link_ok_matrix("ornl-0", names, TIMES)
        assert ok.shape == (2, TIMES.size)
        assert ok[0].all()
        np.testing.assert_array_equal(ok[1], p.link_ok_series("ornl-0", "sat-002", TIMES))

    def test_link_ok_matrix_scalar_when_untouched(self):
        assert plane().link_ok_matrix("ttu-0", ["sat-001"], TIMES) is True


class TestNoopPlane:
    def test_empty_is_noop(self):
        assert FaultPlane().is_noop
        assert not plane().is_noop

    def test_noop_answers_identity(self):
        p = FaultPlane()
        assert not p.node_down("x", 0.0)
        assert not p.link_cut("x", "y", 0.0)
        assert p.fade_factor("x", 0.0) == 1.0
        assert p.node_up_series("x", TIMES) is True
        assert p.fade_factor_series("x", TIMES) == 1.0

    def test_zero_length_event_plane_is_inert(self):
        p = FaultPlane((SatelliteOutage(100.0, 100.0, satellite="sat-000"),))
        assert not p.is_noop  # it has an event...
        series = p.node_up_series("sat-000", TIMES)
        assert np.asarray(series).all()  # ...but the event covers no sample


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
