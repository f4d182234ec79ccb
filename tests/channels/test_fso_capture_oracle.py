"""``FSOChannelModel.eta_capture`` against quadrature of the beam.

Independent physics oracle (shares no code with ``src/``): the received
Gaussian intensity ``2/(pi w^2) exp(-2 |x - d|^2 / w^2)`` of a beam whose
centre sits ``d`` off the aperture axis, integrated numerically over the
receive disc of radius ``a``. In polar coordinates the angular integral
is a Bessel function, so the captured fraction is the radial integral of
``4 r / w^2 exp(-2 (r - d)^2 / w^2) i0e(4 r d / w^2)``.

* Without jitter (``d = 0``) the closed form ``1 - exp(-2 a^2 / w^2)`` is
  exact, and the code must agree to 1e-9 across the paper's slant
  ranges (elevations pi/9 .. pi/2 from the satellite and HAP altitudes).
* With the conservative presets' jitter the code multiplies by
  ``exp(-2 d^2 / w^2)`` with ``d = sigma L``, which is exact only for an
  aperture much smaller than the spot. The receive aperture here is as
  large as the spot, so the product form under-counts the captured
  power. The deviation is measured and pinned (DESIGN.md, §5 "Pointing
  jitter").
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

from repro.channels.presets import (
    conservative_hap_fso,
    conservative_satellite_fso,
    paper_hap_fso,
    paper_satellite_fso,
)
from repro.constants import EARTH_RADIUS_KM, QNTN_HAP_ALTITUDE_KM, QNTN_SATELLITE_ALTITUDE_KM

ELEVATIONS = np.linspace(math.pi / 9, math.pi / 2, 25)


def slant_range_km(elevation_rad, altitude_km):
    """Range to a platform at ``altitude_km`` seen at ``elevation_rad``
    over a spherical Earth."""
    r, ro = EARTH_RADIUS_KM, EARTH_RADIUS_KM + altitude_km
    return math.sqrt(ro**2 - (r * math.cos(elevation_rad)) ** 2) - r * math.sin(elevation_rad)


def captured_fraction(a, w, d):
    """Quadrature of the offset Gaussian beam over the aperture disc."""

    def radial(r):
        bessel = special.i0e(4.0 * r * d / w**2)
        return 4.0 * r / w**2 * math.exp(-2.0 * (r - d) ** 2 / w**2) * bessel

    value, _ = integrate.quad(radial, 0.0, a, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def deviations(model, altitude_km):
    """Relative deviation of ``eta_capture`` from quadrature per elevation."""
    out = []
    for el in ELEVATIONS:
        L = slant_range_km(el, altitude_km)
        w = float(model.effective_spot_m(L, el, altitude_km))
        d = model.pointing_jitter_rad * L * 1000.0
        exact = captured_fraction(model.rx_aperture_radius_m, w, d)
        out.append((float(model.eta_capture(L, el, altitude_km)) - exact) / exact)
    return np.array(out)


@pytest.mark.parametrize(
    "model, altitude_km",
    [
        (paper_satellite_fso(), QNTN_SATELLITE_ALTITUDE_KM),
        (paper_hap_fso(), QNTN_HAP_ALTITUDE_KM),
    ],
    ids=["satellite", "hap"],
)
def test_closed_form_matches_quadrature_without_jitter(model, altitude_km):
    assert model.pointing_jitter_rad == 0.0
    assert np.abs(deviations(model, altitude_km)).max() <= 1e-9


@pytest.mark.parametrize(
    "model, altitude_km, low, high",
    [
        (conservative_satellite_fso(), QNTN_SATELLITE_ALTITUDE_KM, 0.027, 0.028),
        (conservative_hap_fso(), QNTN_HAP_ALTITUDE_KM, 0.071, 0.072),
    ],
    ids=["satellite", "hap"],
)
def test_jitter_product_form_is_a_measured_underestimate(model, altitude_km, low, high):
    """The product form never over-counts, and its largest shortfall is
    the one DESIGN.md states (2.77 % satellite, 7.11 % HAP)."""
    assert model.pointing_jitter_rad > 0.0
    dev = deviations(model, altitude_km)
    assert (dev <= 1e-12).all()
    assert low < -dev.min() < high
