"""Unit tests for the two-body propagator."""

import numpy as np
import pytest

from repro.constants import QNTN_SEMI_MAJOR_AXIS_KM
from repro.errors import ValidationError
from repro.orbits.elements import ElementSet, OrbitalElements, orbital_period
from repro.orbits.propagator import TwoBodyPropagator


def _single(a=QNTN_SEMI_MAJOR_AXIS_KM, e=0.0, inc=0.9, raan=0.3, argp=0.0, nu=0.1):
    return ElementSet.from_elements([OrbitalElements(a, e, inc, raan, argp, nu)])


class TestTwoBodyPropagator:
    def test_radius_constant_for_circular_orbit(self):
        prop = TwoBodyPropagator(_single())
        times = np.linspace(0, 6000, 50)
        r = prop.positions_eci(times)
        radii = np.linalg.norm(r, axis=-1)
        np.testing.assert_allclose(radii, QNTN_SEMI_MAJOR_AXIS_KM, rtol=1e-10)

    def test_periodicity(self):
        prop = TwoBodyPropagator(_single())
        period = orbital_period(QNTN_SEMI_MAJOR_AXIS_KM)
        r = prop.positions_eci(np.array([0.0, period]))
        np.testing.assert_allclose(r[0, 0], r[0, 1], atol=1e-6)

    def test_half_period_opposite_position(self):
        prop = TwoBodyPropagator(_single())
        period = orbital_period(QNTN_SEMI_MAJOR_AXIS_KM)
        r = prop.positions_eci(np.array([0.0, period / 2]))
        np.testing.assert_allclose(r[0, 0], -r[0, 1], atol=1e-6)

    def test_inclination_bounds_z(self):
        inc = np.radians(53.0)
        prop = TwoBodyPropagator(_single(inc=inc))
        r = prop.positions_eci(np.linspace(0, 6000, 200))
        max_z = np.abs(r[..., 2]).max()
        assert max_z <= QNTN_SEMI_MAJOR_AXIS_KM * np.sin(inc) * (1 + 1e-9)
        assert max_z == pytest.approx(QNTN_SEMI_MAJOR_AXIS_KM * np.sin(inc), rel=1e-3)

    def test_eccentric_orbit_radius_range(self):
        prop = TwoBodyPropagator(_single(a=8000.0, e=0.1))
        r = prop.positions_eci(np.linspace(0, 2 * orbital_period(8000.0), 400))
        radii = np.linalg.norm(r, axis=-1)
        assert radii.min() == pytest.approx(8000.0 * 0.9, rel=1e-4)
        assert radii.max() == pytest.approx(8000.0 * 1.1, rel=1e-4)

    def test_shape_multisat(self):
        es = ElementSet.from_elements(
            [OrbitalElements(7000.0, 0.0, 0.9, r, 0.0, 0.0) for r in (0.0, 1.0, 2.0)]
        )
        prop = TwoBodyPropagator(es)
        assert prop.positions_eci(np.linspace(0, 100, 7)).shape == (3, 7, 3)

    def test_rejects_empty_set(self):
        with pytest.raises(ValidationError):
            TwoBodyPropagator(
                ElementSet(
                    np.array([]), np.array([]), np.array([]),
                    np.array([]), np.array([]), np.array([]),
                )
            )

    def test_rejects_2d_times(self):
        prop = TwoBodyPropagator(_single())
        with pytest.raises(ValidationError):
            prop.positions_eci(np.zeros((2, 2)))

    def test_scalar_reference_matches_vectorized(self):
        es = ElementSet.from_elements(
            [
                OrbitalElements(7000.0, 0.05, 0.9, 0.3, 0.4, 0.5),
                OrbitalElements(6900.0, 0.0, 1.1, 2.0, 0.0, 1.0),
            ]
        )
        prop = TwoBodyPropagator(es)
        times = np.linspace(0, 3000, 5)
        np.testing.assert_allclose(
            prop.positions_eci(times), prop.positions_eci_scalar(times), atol=1e-6
        )


class TestJ2:
    def test_j2_polar_orbit_has_no_raan_drift(self):
        es = _single(inc=np.pi / 2)
        prop = TwoBodyPropagator(es, include_j2=True)
        assert prop._j2 is not None
        assert prop._j2.raan_dot[0] == pytest.approx(0.0, abs=1e-15)

    def test_j2_prograde_orbit_regresses_westward(self):
        prop = TwoBodyPropagator(_single(inc=np.radians(53.0)), include_j2=True)
        assert prop._j2.raan_dot[0] < 0.0

    def test_j2_retrograde_orbit_advances(self):
        prop = TwoBodyPropagator(_single(inc=np.radians(120.0)), include_j2=True)
        assert prop._j2.raan_dot[0] > 0.0

    def test_j2_drift_magnitude_leo(self):
        """At 500 km / 53 deg the nodal regression is a few degrees/day."""
        prop = TwoBodyPropagator(_single(inc=np.radians(53.0)), include_j2=True)
        deg_per_day = np.degrees(prop._j2.raan_dot[0]) * 86400
        assert -6.0 < deg_per_day < -3.0

    def test_j2_changes_positions(self):
        times = np.array([43200.0])
        base = TwoBodyPropagator(_single()).positions_eci(times)
        j2 = TwoBodyPropagator(_single(), include_j2=True).positions_eci(times)
        assert np.linalg.norm(base - j2) > 1.0  # km-scale displacement after 12 h


class TestPhysicsOracles:
    """Closed-form two-body and J2 physics, measured from propagated
    positions alone (finite differences, node crossings)."""

    MU = 398600.4418  # km^3/s^2, the propagator's default
    J2 = 1.08262668e-3
    R_REF_KM = 6378.137  # the equatorial radius J2 is normalised to

    def _orbit(self, e, inc, *, include_j2=False):
        elements = _single(a=QNTN_SEMI_MAJOR_AXIS_KM + 300.0, e=e, inc=inc, argp=0.7)
        return elements, TwoBodyPropagator(elements, mu=self.MU, include_j2=include_j2)

    @pytest.mark.parametrize("e", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize("inc", [0.1, 0.9, 2.5])
    def test_two_body_conserves_energy_and_angular_momentum(self, e, inc):
        elements, prop = self._orbit(e, inc)
        a = float(elements.a[0])
        t = np.linspace(0.0, float(orbital_period(a)), 400)
        h = 0.1
        r = prop.positions_eci(t)[0]
        v = (prop.positions_eci(t + h)[0] - prop.positions_eci(t - h)[0]) / (2.0 * h)

        energy = 0.5 * np.sum(v * v, axis=1) - self.MU / np.linalg.norm(r, axis=1)
        np.testing.assert_allclose(energy, -self.MU / (2.0 * a), rtol=1e-7)

        momentum = np.cross(r, v)
        expected = np.sqrt(self.MU * a * (1.0 - e**2))
        np.testing.assert_allclose(np.linalg.norm(momentum, axis=1), expected, rtol=1e-7)
        normal = momentum / np.linalg.norm(momentum, axis=1)[:, None]
        np.testing.assert_allclose(normal, np.broadcast_to(normal[0], normal.shape), atol=1e-9)
        assert normal[0][2] == pytest.approx(np.cos(inc), abs=1e-9)

    @pytest.mark.parametrize("e", [0.0, 0.01])
    @pytest.mark.parametrize("inc_deg", [30.0, 53.0, 97.4, 140.0])
    def test_j2_raan_rate_matches_closed_form(self, e, inc_deg):
        """The ascending node's longitude drifts at -1.5 n J2 (R/p)^2 cos i."""
        inc = np.radians(inc_deg)
        elements, prop = self._orbit(e, inc, include_j2=True)
        step = 5.0
        t = np.arange(0.0, 2.0 * 86400.0, step)
        r = prop.positions_eci(t)[0]
        z = r[:, 2]
        k = np.flatnonzero((z[:-1] < 0.0) & (z[1:] >= 0.0))  # ascending crossings
        frac = -z[k] / (z[k + 1] - z[k])
        node = r[k] + frac[:, None] * (r[k + 1] - r[k])
        raan = np.unwrap(np.arctan2(node[:, 1], node[:, 0]))
        rate = np.polyfit(t[k] + frac * step, raan, 1)[0]

        a = float(elements.a[0])
        n = np.sqrt(self.MU / a**3)
        p = a * (1.0 - e**2)
        expected = -1.5 * n * self.J2 * (self.R_REF_KM / p) ** 2 * np.cos(inc)
        assert len(k) > 25
        assert rate == pytest.approx(expected, rel=1e-8)
