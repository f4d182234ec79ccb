"""Free-space optical channel model (paper Eq. 2).

``eta = eta_th * eta_atm * eta_eff`` where

* ``eta_th`` — turbulence/diffraction transmissivity: the fraction of a
  Gaussian beam captured by the receiver aperture after diffraction
  spreading, turbulence-induced spreading (via the spherical-wave
  coherence length over the slant path), and optional pointing jitter;
* ``eta_atm`` — atmospheric extinction along the slant path
  (:class:`~repro.channels.atmosphere.ExponentialAtmosphere`);
* ``eta_eff`` — fixed receiver/system efficiency.

The hot path is vectorized: per-sample turbulence integrals would dominate
the constellation sweep, so the turbulence spread is tabulated once per
(model, platform-altitude) pair over an elevation grid and interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.channels.atmosphere import ExponentialAtmosphere, spherical_coherence_length
from repro.constants import DEFAULT_WAVELENGTH_M
from repro.errors import ChannelError, ValidationError
from repro.utils.validation import check_in_range, check_positive

__all__ = [
    "FSOChannelModel",
    "calibrate_beam_waist",
    "aperture_averaging_factor",
    "fade_probability",
    "mean_fade_margin_db",
]

#: Elevation grid for the tabulated turbulence spread [rad].
_ELEVATION_GRID = np.radians(np.linspace(1.0, 90.0, 90))


@dataclass(frozen=True)
class FSOChannelModel:
    """Gaussian-beam FSO link budget.

    Attributes:
        wavelength_m: optical wavelength [m].
        beam_waist_m: transmitter beam waist w0 [m] (1/e^2 intensity radius).
        rx_aperture_radius_m: receiver aperture radius [m] (half the
            "aperture size" quoted by the paper).
        receiver_efficiency: eta_eff in (0, 1].
        atmosphere: extinction model, or ``None`` for exo-atmospheric
            (inter-satellite) links.
        turbulence: include turbulence-induced beam spreading.
        uplink: transmitter on the ground (True) or on the platform
            (False). Downlink is the default, matching satellite
            entanglement sources that beam photons down to ground stations.
        cn2_scale: multiplier on the turbulence profile (weather knob).
        pointing_jitter_rad: RMS pointing error; widens the effective
            mispointing displacement ``d = jitter * range``.
    """

    wavelength_m: float = DEFAULT_WAVELENGTH_M
    beam_waist_m: float = 0.4
    rx_aperture_radius_m: float = 0.6
    receiver_efficiency: float = 1.0
    atmosphere: ExponentialAtmosphere | None = None
    turbulence: bool = False
    uplink: bool = False
    cn2_scale: float = 1.0
    pointing_jitter_rad: float = 0.0

    def __post_init__(self) -> None:
        check_positive("wavelength_m", self.wavelength_m)
        check_positive("beam_waist_m", self.beam_waist_m)
        check_positive("rx_aperture_radius_m", self.rx_aperture_radius_m)
        check_in_range("receiver_efficiency", self.receiver_efficiency, 0.0, 1.0)
        check_positive("cn2_scale", self.cn2_scale)
        if self.pointing_jitter_rad < 0:
            raise ValidationError("pointing_jitter_rad must be >= 0")

    # --- beam geometry ------------------------------------------------------

    @property
    def rayleigh_range_m(self) -> float:
        """Rayleigh range z_R = pi w0^2 / lambda [m]."""
        return math.pi * self.beam_waist_m**2 / self.wavelength_m

    def diffraction_spot_m(self, slant_range_km: np.ndarray | float) -> np.ndarray:
        """Diffraction-limited beam radius w(z) at the receiver [m]."""
        z = np.asarray(slant_range_km, dtype=float) * 1000.0
        if np.any(z < 0):
            raise ValidationError("slant range must be >= 0")
        return self.beam_waist_m * np.sqrt(1.0 + (z / self.rayleigh_range_m) ** 2)

    def _turbulence_spread_m(
        self,
        slant_range_km: np.ndarray,
        elevation_rad: np.ndarray,
        platform_altitude_km: float,
    ) -> np.ndarray:
        """Turbulence beam-spread radius ``2 L / (k rho_0)`` [m], interpolated."""
        if not self.turbulence or self.atmosphere is None:
            return np.zeros_like(np.asarray(slant_range_km, dtype=float))
        grid_el, grid_rho0 = _coherence_table(
            self.wavelength_m,
            round(float(platform_altitude_km), 3),
            self.uplink,
            self.cn2_scale,
        )
        rho0 = np.interp(np.asarray(elevation_rad, dtype=float), grid_el, grid_rho0)
        k = 2.0 * math.pi / self.wavelength_m
        z = np.asarray(slant_range_km, dtype=float) * 1000.0
        with np.errstate(divide="ignore"):
            spread = np.where(np.isinf(rho0), 0.0, 2.0 * z / (k * np.where(rho0 <= 0, 1, rho0)))
        return spread

    def effective_spot_m(
        self,
        slant_range_km: np.ndarray | float,
        elevation_rad: np.ndarray | float | None = None,
        platform_altitude_km: float | None = None,
    ) -> np.ndarray:
        """Long-term beam radius including turbulence spreading [m]."""
        w_d = self.diffraction_spot_m(slant_range_km)
        if self.turbulence and self.atmosphere is not None:
            if elevation_rad is None or platform_altitude_km is None:
                raise ChannelError(
                    "turbulent atmospheric links need elevation_rad and platform_altitude_km"
                )
            w_t = self._turbulence_spread_m(
                np.asarray(slant_range_km, dtype=float),
                np.asarray(elevation_rad, dtype=float),
                platform_altitude_km,
            )
            return np.sqrt(w_d**2 + w_t**2)
        return w_d

    # --- transmissivity factors ----------------------------------------------

    def eta_capture(
        self,
        slant_range_km: np.ndarray | float,
        elevation_rad: np.ndarray | float | None = None,
        platform_altitude_km: float | None = None,
    ) -> np.ndarray:
        """Aperture-capture factor ``1 - exp(-2 a^2 / w^2)`` with pointing loss.

        This is the paper's ``eta_th``: the geometric fraction of the
        (turbulence-broadened) Gaussian beam collected by the receiver.
        """
        w = self.effective_spot_m(slant_range_km, elevation_rad, platform_altitude_km)
        a = self.rx_aperture_radius_m
        eta = 1.0 - np.exp(-2.0 * a**2 / w**2)
        if self.pointing_jitter_rad > 0.0:
            d = self.pointing_jitter_rad * np.asarray(slant_range_km, dtype=float) * 1000.0
            eta = eta * np.exp(-2.0 * d**2 / w**2)
        return eta

    def eta_atmosphere(
        self,
        elevation_rad: np.ndarray | float | None,
        platform_altitude_km: float | None,
    ) -> np.ndarray | float:
        """Extinction factor ``eta_atm`` (1.0 for exo-atmospheric links)."""
        if self.atmosphere is None:
            return 1.0
        if elevation_rad is None or platform_altitude_km is None:
            raise ChannelError("atmospheric links need elevation_rad and platform_altitude_km")
        return self.atmosphere.transmissivity(elevation_rad, platform_altitude_km)

    def transmissivity(
        self,
        slant_range_km: np.ndarray | float,
        elevation_rad: np.ndarray | float | None = None,
        platform_altitude_km: float | None = None,
    ) -> np.ndarray | float:
        """Total transmissivity ``eta = eta_th * eta_atm * eta_eff`` (Eq. 2).

        Args:
            slant_range_km: transmitter-to-receiver distance(s) [km].
            elevation_rad: path elevation(s) above the ground horizon
                [rad]; required when the model has an atmosphere.
            platform_altitude_km: altitude of the airborne/space end [km];
                required when the model has an atmosphere.

        Vectorized: ``slant_range_km`` and ``elevation_rad`` broadcast.
        """
        eta = (
            self.eta_capture(slant_range_km, elevation_rad, platform_altitude_km)
            * self.eta_atmosphere(elevation_rad, platform_altitude_km)
            * self.receiver_efficiency
        )
        eta = np.clip(eta, 0.0, 1.0)
        return eta if np.ndim(eta) else float(eta)

    def transmissivity_components(
        self,
        slant_range_km: float,
        elevation_rad: float | None = None,
        platform_altitude_km: float | None = None,
    ) -> dict[str, float]:
        """Per-factor breakdown of the link budget (for reports and tests)."""
        return {
            "eta_th": float(
                np.asarray(self.eta_capture(slant_range_km, elevation_rad, platform_altitude_km))
            ),
            "eta_atm": float(np.asarray(self.eta_atmosphere(elevation_rad, platform_altitude_km))),
            "eta_eff": self.receiver_efficiency,
            "eta": float(
                np.asarray(
                    self.transmissivity(slant_range_km, elevation_rad, platform_altitude_km)
                )
            ),
        }


@lru_cache(maxsize=64)
def _coherence_table(
    wavelength_m: float,
    platform_altitude_km: float,
    uplink: bool,
    cn2_scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Tabulated spherical coherence length rho_0 over the elevation grid."""
    rho0 = np.array(
        [
            spherical_coherence_length(
                wavelength_m,
                float(el),
                platform_altitude_km,
                uplink=uplink,
                cn2_scale=cn2_scale,
            )
            for el in _ELEVATION_GRID
        ]
    )
    return _ELEVATION_GRID.copy(), rho0


def aperture_averaging_factor(
    wavelength_m: float, path_length_km: float, rx_aperture_radius_m: float
) -> float:
    """Scintillation reduction from a finite receiver aperture.

    Andrews' plane-wave approximation
    ``A = [1 + 1.062 k a^2 / (4 L)]^{-7/6}``: an aperture much larger
    than the Fresnel zone ``sqrt(L/k)`` averages over many speckles and
    suppresses the scintillation index by A. The QNTN 120 cm ground
    apertures average aggressively (A ~ 0.06 on HAP paths).
    """
    check_positive("wavelength_m", wavelength_m)
    check_positive("path_length_km", path_length_km)
    check_positive("rx_aperture_radius_m", rx_aperture_radius_m)
    k = 2.0 * math.pi / wavelength_m
    ratio = 1.062 * k * rx_aperture_radius_m**2 / (4.0 * path_length_km * 1000.0)
    return (1.0 + ratio) ** (-7.0 / 6.0)


def fade_probability(
    mean_transmissivity: float,
    rytov_variance: float,
    threshold: float,
) -> float:
    """Probability that scintillation fades the link below ``threshold``.

    Weak-fluctuation model: the instantaneous transmissivity is
    log-normal, ``eta = eta_mean * exp(X - sigma^2/2)`` with
    ``X ~ N(0, sigma^2)`` and ``sigma^2 = ln(1 + sigma_I^2)`` where the
    scintillation index ``sigma_I^2 ~ sigma_R^2`` (the Rytov variance in
    the weak regime). The fade probability is then

        P(eta < thr) = Phi( (ln(thr/eta_mean) + sigma^2/2) / sigma ).

    This is what turns the paper's *deterministic* threshold rule into a
    duty factor: a link whose mean sits just above 0.7 still fades below
    it for a calculable fraction of the time.

    Args:
        mean_transmissivity: long-term mean eta of the link.
        rytov_variance: scintillation strength (see
            :func:`repro.channels.atmosphere.rytov_variance_slant`).
        threshold: the admission threshold (paper: 0.7).
    """
    check_in_range("mean_transmissivity", mean_transmissivity, 0.0, 1.0)
    check_in_range("threshold", threshold, 0.0, 1.0)
    if rytov_variance < 0:
        raise ValidationError(f"rytov_variance must be >= 0, got {rytov_variance}")
    if mean_transmissivity == 0.0:
        return 1.0
    if threshold == 0.0:
        return 0.0
    if rytov_variance == 0.0:
        return 1.0 if mean_transmissivity < threshold else 0.0
    sigma2 = math.log1p(rytov_variance)
    sigma = math.sqrt(sigma2)
    z = (math.log(threshold / mean_transmissivity) + sigma2 / 2.0) / sigma
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def mean_fade_margin_db(mean_transmissivity: float, threshold: float) -> float:
    """Link margin above the threshold [dB] (negative when below)."""
    check_in_range("mean_transmissivity", mean_transmissivity, 0.0, 1.0)
    check_in_range("threshold", threshold, 0.0, 1.0)
    if mean_transmissivity == 0.0 or threshold == 0.0:
        raise ValidationError("fade margin needs positive mean and threshold")
    return 10.0 * math.log10(mean_transmissivity / threshold)


def calibrate_beam_waist(
    target_eta: float,
    slant_range_km: float,
    elevation_rad: float,
    platform_altitude_km: float,
    *,
    wavelength_m: float = DEFAULT_WAVELENGTH_M,
    rx_aperture_radius_m: float = 0.6,
    receiver_efficiency: float = 1.0,
    atmosphere: ExponentialAtmosphere | None = None,
    turbulence: bool = False,
    uplink: bool = False,
    waist_bounds_m: tuple[float, float] = (0.01, 2.0),
    tol: float = 1e-6,
) -> float:
    """Beam waist w0 that achieves ``target_eta`` at a given operating point.

    Bisects on w0. Used to pin the "paper preset" so the link hits the
    paper's transmissivity threshold (0.7) exactly at its effective
    cut-off elevation; exposed publicly so users can recalibrate for
    their own hardware assumptions.

    Raises:
        ChannelError: if the target is unreachable within ``waist_bounds_m``.
    """
    check_in_range("target_eta", target_eta, 0.0, 1.0)

    def eta_of(w0: float) -> float:
        model = FSOChannelModel(
            wavelength_m=wavelength_m,
            beam_waist_m=w0,
            rx_aperture_radius_m=rx_aperture_radius_m,
            receiver_efficiency=receiver_efficiency,
            atmosphere=atmosphere,
            turbulence=turbulence,
            uplink=uplink,
        )
        return float(
            np.asarray(model.transmissivity(slant_range_km, elevation_rad, platform_altitude_km))
        )

    lo, hi = waist_bounds_m
    # eta is unimodal in w0: too small -> the beam diverges past the
    # aperture, too large -> the collimated beam overfills it. Scan for the
    # peak, then bisect on the SMALL-waist (far-field) branch: that branch
    # makes eta fall off steeply with range/elevation, which is the
    # behaviour a threshold-governed link needs (the large-waist branch is
    # nearly range-flat, so the threshold would never bite).
    grid = np.linspace(lo, hi, 200)
    etas = np.array([eta_of(float(w)) for w in grid])
    best = int(np.argmax(etas))
    if etas[best] < target_eta:
        raise ChannelError(
            f"target eta {target_eta} unreachable; best achievable is "
            f"{etas[best]:.4f} at w0={grid[best]:.3f} m"
        )
    lower = best
    while lower > 0 and etas[lower] >= target_eta:
        lower -= 1
    if etas[lower] >= target_eta:
        # Even the smallest waist stays above target; return the peak waist.
        return float(grid[best])
    a, b = grid[lower], grid[min(lower + 1, grid.size - 1)]
    # eta increases in w0 on [a, b]; bisect for the crossing.
    for _ in range(200):
        mid = 0.5 * (a + b)
        if eta_of(float(mid)) >= target_eta:
            b = mid
        else:
            a = mid
        if b - a < tol:
            break
    return float(0.5 * (a + b))
