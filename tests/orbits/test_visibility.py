"""Tests for visibility geometry and access windows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import EARTH_RADIUS_KM, QNTN_MIN_ELEVATION_RAD
from repro.errors import ValidationError
from repro.orbits.frames import ecef_to_enu_matrix, geodetic_to_ecef
from repro.orbits.ephemeris import generate_movement_sheet
from repro.orbits.visibility import (
    CULLED_ELEVATION_RAD,
    AccessWindow,
    access_windows,
    elevation_and_range,
    elevation_and_range_scalar,
    above_horizon_points,
    elevation_and_slant_range,
    ground_coverage_radius_km,
    visibility_mask,
)
from repro.orbits.walker import walker_delta

SITE = (math.radians(36.1757), math.radians(-85.5066), 0.3)


class TestElevationAndRange:
    def test_overhead_platform(self):
        overhead = geodetic_to_ecef(SITE[0], SITE[1], SITE[2] + 500.0)
        az, el, rng = elevation_and_range(*SITE, overhead[None, :])
        assert float(el[0]) == pytest.approx(math.pi / 2, abs=1e-6)
        assert float(rng[0]) == pytest.approx(500.0, rel=1e-6)

    def test_antipode_below_horizon(self):
        antipode = geodetic_to_ecef(-SITE[0], SITE[1] + math.pi, 500.0)
        _, el, _ = elevation_and_range(*SITE, antipode[None, :])
        assert float(el[0]) < 0.0

    def test_matches_scalar_reference(self, small_ephemeris):
        pos = small_ephemeris.positions_ecef_km[:, :40, :]
        az_v, el_v, rng_v = elevation_and_range(*SITE, pos)
        az_s, el_s, rng_s = elevation_and_range_scalar(*SITE, pos)
        np.testing.assert_allclose(az_v, az_s, atol=1e-10)
        np.testing.assert_allclose(el_v, el_s, atol=1e-10)
        np.testing.assert_allclose(rng_v, rng_s, atol=1e-8)

    def test_range_bounds_for_leo(self, small_ephemeris):
        _, el, rng = elevation_and_range(*SITE, small_ephemeris.positions_ecef_km)
        visible = el > QNTN_MIN_ELEVATION_RAD
        if np.any(visible):
            assert rng[visible].min() > 480.0
            assert rng[visible].max() < 1300.0


class TestAzimuthFreeGeometry:
    """Callers that drop the azimuth get :func:`elevation_and_range`'s floats."""

    def test_site_budget_geometry_bit_equal(self, small_ephemeris, sites):
        """Computed points carry the dense kernel's floats; culled points
        were at or below the horizon and carry the sentinels."""
        from repro.channels.presets import paper_satellite_fso
        from repro.engine.budgets import compute_site_budget

        for site in sites[::5]:
            budget = compute_site_budget(site, small_ephemeris, paper_satellite_fso())
            _, el, rng = elevation_and_range(
                site.lat_rad, site.lon_rad, site.alt_km, small_ephemeris.positions_ecef_km
            )
            computed = np.isfinite(budget.slant_range_km)
            assert computed.any() and not computed.all()
            np.testing.assert_array_equal(budget.elevation_rad[computed], el[computed])
            np.testing.assert_array_equal(budget.slant_range_km[computed], rng[computed])
            assert np.all(el[~computed] <= 0.0)
            assert np.all(budget.elevation_rad[~computed] == CULLED_ELEVATION_RAD)
            assert np.all(budget.transmissivity[~computed] == 0.0)
            assert not budget.usable[~computed].any()

    def test_hap_site_geometry_bit_equal(self, sites):
        from repro.channels.presets import paper_hap_fso
        from repro.constants import (
            QNTN_HAP_ALTITUDE_KM,
            QNTN_HAP_LAT_DEG,
            QNTN_HAP_LON_DEG,
        )
        from repro.core.analysis import AirGroundAnalysis

        analysis = AirGroundAnalysis(
            sites,
            paper_hap_fso(),
            hap_lat_deg=QNTN_HAP_LAT_DEG,
            hap_lon_deg=QNTN_HAP_LON_DEG,
            hap_alt_km=QNTN_HAP_ALTITUDE_KM,
        )
        hap = geodetic_to_ecef(
            math.radians(QNTN_HAP_LAT_DEG),
            math.radians(QNTN_HAP_LON_DEG),
            QNTN_HAP_ALTITUDE_KM,
        )
        for site in sites:
            _, el, rng = elevation_and_range(site.lat_rad, site.lon_rad, site.alt_km, hap[None, :])
            assert analysis.site_geometry(site.name) == (float(el[0]), float(rng[0]))


def _geodetic_site(lat_rad, max_alt_km=10.0):
    return st.tuples(
        lat_rad,
        st.floats(-math.pi, math.pi),
        st.floats(0.0, max_alt_km),
    )


_ANY_LAT = st.floats(-math.pi / 2, math.pi / 2)
_HIGH_LAT = st.one_of(
    st.floats(math.radians(60.0), math.pi / 2),
    st.floats(-math.pi / 2, math.radians(-60.0)),
)
_SITE_SETS = st.one_of(
    st.lists(_geodetic_site(_ANY_LAT), min_size=1, max_size=1),  # one site
    st.lists(_geodetic_site(_ANY_LAT), min_size=2, max_size=5),  # spread sites
    st.lists(_geodetic_site(_HIGH_LAT), min_size=1, max_size=3),  # high latitude
    st.lists(_geodetic_site(_ANY_LAT, max_alt_km=40.0), min_size=1, max_size=3),  # high altitude
)
#: Platform altitudes [km] above the mean Earth radius: HAP and LEO.
_PLATFORM_ALTITUDES = st.one_of(st.floats(15.0, 50.0), st.floats(300.0, 2000.0))


@st.composite
def _walker_positions(draw):
    """ECEF positions ``(n_sats, n_times, 3)`` of a random Walker-Delta
    constellation at a HAP or LEO radius."""
    n_planes = draw(st.integers(1, 6))
    per_plane = draw(st.integers(1, 4))
    elements = walker_delta(
        n_planes * per_plane,
        n_planes,
        draw(st.integers(0, n_planes - 1)),
        inclination_rad=draw(st.floats(0.0, math.pi)),
        semi_major_axis_km=EARTH_RADIUS_KM + draw(_PLATFORM_ALTITUDES),
    )
    ephemeris = generate_movement_sheet(
        elements,
        duration_s=5400.0,
        step_s=90.0,
        gmst_epoch_rad=draw(st.floats(0.0, 2.0 * math.pi)),
    )
    return ephemeris.positions_ecef_km


def _assert_cull_exact(site, positions):
    """No point with dense elevation > 0 is culled; kept points are
    ascending flat indices whose floats are bit-equal to the dense kernel."""
    el, rng = elevation_and_slant_range(*site, positions)
    index, kept_el, kept_rng = above_horizon_points(*site, positions)
    assert np.all(np.diff(index) > 0)
    kept = np.zeros(el.shape, dtype=bool)
    kept.reshape(-1)[index] = True
    assert not np.any(el[~kept] > 0.0)
    assert kept_el.tobytes() == el.reshape(-1)[index].tobytes()
    assert kept_rng.tobytes() == rng.reshape(-1)[index].tobytes()


def _onto_horizon_plane(site, positions, seed):
    """``positions`` moved along the site's up vector to heights within
    +-1e-3 km of its horizon plane, log-uniform from 1e-12 km."""
    rng = np.random.default_rng(seed)
    up = ecef_to_enu_matrix(site[0], site[1])[2]
    height = positions @ up - up @ geodetic_to_ecef(*site)
    magnitude = 10.0 ** rng.uniform(-12.0, -3.0, size=height.shape)
    offset = rng.choice([-1.0, 1.0], size=height.shape) * magnitude
    return positions + (offset - height)[..., None] * up


class TestHorizonCull:
    """:func:`above_horizon_points` against the dense pass."""

    @settings(max_examples=80, deadline=None)
    @given(
        positions=_walker_positions(),
        sites=_SITE_SETS,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_culls_a_visible_point(self, positions, sites, seed):
        """The constellation as propagated, and moved onto each site's
        horizon plane, where the margin decides."""
        for site in sites:
            _assert_cull_exact(site, positions)
            _assert_cull_exact(site, _onto_horizon_plane(site, positions, seed))


class TestVisibilityMask:
    def test_threshold(self):
        el = np.array([0.1, 0.5, 0.34])
        mask = visibility_mask(el, 0.35)
        assert mask.tolist() == [False, True, False]

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValidationError):
            visibility_mask(np.array([0.1]), float("nan"))


class TestAccessWindows:
    def test_single_pass(self):
        times = np.arange(10, dtype=float)
        el = np.array([-1, -0.5, 0.1, 0.4, 0.6, 0.5, 0.2, -0.1, -0.5, -1.0])
        windows = access_windows(times, el, 0.0)
        assert len(windows) == 1
        w = windows[0]
        assert w.start_s == 2.0
        assert w.end_s == 7.0
        assert w.peak_elevation_rad == pytest.approx(0.6)
        assert w.duration_s == pytest.approx(5.0)

    def test_no_pass(self):
        times = np.arange(5, dtype=float)
        assert access_windows(times, np.full(5, -0.1), 0.0) == []

    def test_two_passes(self):
        times = np.arange(8, dtype=float)
        el = np.array([0.5, -0.1, -0.2, 0.3, 0.4, -0.3, 0.2, 0.1])
        windows = access_windows(times, el, 0.0)
        assert len(windows) == 3
        assert [w.start_s for w in windows] == [0.0, 3.0, 6.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            access_windows(np.arange(3, dtype=float), np.zeros(4), 0.0)

    def test_window_dataclass(self):
        w = AccessWindow(10.0, 40.0, 0.9)
        assert w.duration_s == 30.0


class TestGroundCoverageRadius:
    def test_zero_elevation_maximal(self):
        r0 = ground_coverage_radius_km(500.0, 0.0)
        r20 = ground_coverage_radius_km(500.0, math.radians(20.0))
        assert r0 > r20 > 0

    def test_known_value_500km_20deg(self):
        """Footprint radius ~1040 km for 500 km altitude at 20 deg."""
        r = ground_coverage_radius_km(500.0, math.radians(20.0))
        assert r == pytest.approx(1040.0, rel=0.02)

    def test_higher_platform_larger_footprint(self):
        assert ground_coverage_radius_km(1000.0, 0.3) > ground_coverage_radius_km(500.0, 0.3)

    def test_rejects_bad_altitude(self):
        with pytest.raises(ValidationError):
            ground_coverage_radius_km(0.0, 0.3)

    def test_rejects_bad_elevation(self):
        with pytest.raises(ValidationError):
            ground_coverage_radius_km(500.0, math.pi / 2)
