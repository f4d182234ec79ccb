"""Vectorized two-body propagation with optional J2 secular rates.

The propagator advances a whole :class:`~repro.orbits.elements.ElementSet`
over a whole time grid in one shot, producing an ``(n_sats, n_times, 3)``
position array. For the QNTN scenario (108 satellites x 2880 samples) this
runs in milliseconds, replacing the paper's STK runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import EARTH_MU_KM3_S2, EARTH_RADIUS_KM, EARTH_J2
from repro.errors import ValidationError
from repro.orbits.elements import ElementSet, OrbitalElements
from repro.orbits.kepler import solve_kepler, true_to_mean

__all__ = ["TwoBodyPropagator", "elements_to_eci"]


def _perifocal_to_eci_matrices(
    raan: np.ndarray, inc: np.ndarray, argp: np.ndarray
) -> np.ndarray:
    """Stack of perifocal->ECI rotation matrices, shape ``(n, 3, 3)``."""
    cO, sO = np.cos(raan), np.sin(raan)
    ci, si = np.cos(inc), np.sin(inc)
    cw, sw = np.cos(argp), np.sin(argp)
    m = np.empty(raan.shape + (3, 3), dtype=float)
    m[..., 0, 0] = cO * cw - sO * sw * ci
    m[..., 0, 1] = -cO * sw - sO * cw * ci
    m[..., 0, 2] = sO * si
    m[..., 1, 0] = sO * cw + cO * sw * ci
    m[..., 1, 1] = -sO * sw + cO * cw * ci
    m[..., 1, 2] = -cO * si
    m[..., 2, 0] = sw * si
    m[..., 2, 1] = cw * si
    m[..., 2, 2] = ci
    return m


def elements_to_eci(elements: OrbitalElements) -> np.ndarray:
    """ECI position of a single element set at its own epoch [km]."""
    es = ElementSet.from_elements([elements])
    prop = TwoBodyPropagator(es)
    return prop.positions_eci(np.array([0.0]))[0, 0]


@dataclass(frozen=True)
class _J2Rates:
    """Secular drift rates induced by the J2 zonal harmonic [rad/s]."""

    raan_dot: np.ndarray
    argp_dot: np.ndarray
    mean_anomaly_dot: np.ndarray


class TwoBodyPropagator:
    """Keplerian propagator over an :class:`ElementSet`.

    Args:
        elements: constellation elements at the simulation epoch.
        mu: gravitational parameter [km^3/s^2].
        include_j2: apply secular J2 drift of RAAN / argument of perigee /
            mean anomaly. Short-period J2 oscillations are neglected; over
            one day at 500 km they displace positions by a few km, far
            below the link-budget resolution (documented in DESIGN.md).

    The propagator precomputes per-satellite constants once; repeated
    :meth:`positions_eci` calls only pay the Kepler solve and two matmuls.
    """

    def __init__(
        self,
        elements: ElementSet,
        *,
        mu: float = EARTH_MU_KM3_S2,
        include_j2: bool = False,
    ) -> None:
        if len(elements) == 0:
            raise ValidationError("cannot propagate an empty ElementSet")
        self._elements = elements
        self._mu = mu
        self._n = np.sqrt(mu / elements.a**3)  # mean motion per sat
        self._m0 = true_to_mean(elements.nu, elements.e)
        self._include_j2 = include_j2
        self._j2 = self._j2_rates() if include_j2 else None

    @property
    def elements(self) -> ElementSet:
        """The element set this propagator was built from."""
        return self._elements

    @property
    def n_satellites(self) -> int:
        """Number of satellites."""
        return len(self._elements)

    def _j2_rates(self) -> _J2Rates:
        el = self._elements
        p = el.a * (1.0 - el.e**2)
        factor = 1.5 * EARTH_J2 * (EARTH_RADIUS_KM / p) ** 2 * self._n
        cos_i = np.cos(el.inc)
        sin2_i = np.sin(el.inc) ** 2
        raan_dot = -factor * cos_i
        argp_dot = factor * (2.0 - 2.5 * sin2_i)
        sqrt_1me2 = np.sqrt(1.0 - el.e**2)
        m_dot = factor * sqrt_1me2 * (1.0 - 1.5 * sin2_i)
        return _J2Rates(raan_dot, argp_dot, m_dot)

    def positions_eci(self, times_s: np.ndarray) -> np.ndarray:
        """Propagate to ``times_s`` and return ECI positions.

        Args:
            times_s: 1-D array of epoch-relative times [s], length ``T``.

        Returns:
            Array of shape ``(n_satellites, T, 3)`` [km].
        """
        t = np.asarray(times_s, dtype=float)
        if t.ndim != 1:
            raise ValidationError(f"times_s must be 1-D, got shape {t.shape}")
        el = self._elements
        n_sats = len(el)

        # Broadcast (n_sats, 1) x (T,) -> (n_sats, T)
        M = self._m0[:, None] + self._n[:, None] * t[None, :]
        raan = np.broadcast_to(el.raan[:, None], (n_sats, t.size))
        argp = np.broadcast_to(el.argp[:, None], (n_sats, t.size))
        if self._j2 is not None:
            M = M + self._j2.mean_anomaly_dot[:, None] * t[None, :]
            raan = raan + self._j2.raan_dot[:, None] * t[None, :]
            argp = argp + self._j2.argp_dot[:, None] * t[None, :]

        e = el.e[:, None]
        E = solve_kepler(M, e)
        cosE, sinE = np.cos(E), np.sin(E)
        a = el.a[:, None]
        r = a * (1.0 - e * cosE)
        # Perifocal coordinates.
        x_pf = a * (cosE - e)
        y_pf = a * np.sqrt(1.0 - e**2) * sinE

        cO, sO = np.cos(raan), np.sin(raan)
        ci = np.cos(el.inc)[:, None]
        si = np.sin(el.inc)[:, None]
        cw, sw = np.cos(argp), np.sin(argp)

        # Expand the rotation explicitly to avoid building (n,T,3,3) tensors.
        px = cO * cw - sO * sw * ci
        py = sO * cw + cO * sw * ci
        pz = sw * si
        qx = -cO * sw - sO * cw * ci
        qy = -sO * sw + cO * cw * ci
        qz = cw * si

        out = np.empty((n_sats, t.size, 3), dtype=float)
        out[..., 0] = x_pf * px + y_pf * qx
        out[..., 1] = x_pf * py + y_pf * qy
        out[..., 2] = x_pf * pz + y_pf * qz
        # Radius consistency check is cheap insurance against angle bugs.
        if out.size:
            max_err = float(np.max(np.abs(np.linalg.norm(out, axis=-1) - r)))
            if max_err > 1e-6 * float(np.max(a)):
                raise ValidationError(f"internal propagation inconsistency: {max_err} km")
        return out

    def positions_eci_scalar(self, times_s: np.ndarray) -> np.ndarray:
        """Reference (non-vectorized) implementation of :meth:`positions_eci`.

        Kept for correctness testing and for the benchmark that quantifies
        the vectorization speedup (bench A5). Semantics match
        :meth:`positions_eci` exactly.
        """
        t = np.asarray(times_s, dtype=float)
        out = np.empty((self.n_satellites, t.size, 3), dtype=float)
        el = self._elements
        for i in range(self.n_satellites):
            for j, tj in enumerate(t):
                M = self._m0[i] + self._n[i] * tj
                raan = el.raan[i]
                argp = el.argp[i]
                if self._j2 is not None:
                    M += self._j2.mean_anomaly_dot[i] * tj
                    raan += self._j2.raan_dot[i] * tj
                    argp += self._j2.argp_dot[i] * tj
                E = float(solve_kepler(M, el.e[i]))
                a, e = el.a[i], el.e[i]
                x_pf = a * (np.cos(E) - e)
                y_pf = a * np.sqrt(1 - e**2) * np.sin(E)
                rot = _perifocal_to_eci_matrices(
                    np.array(raan), np.array(el.inc[i]), np.array(argp)
                )
                out[i, j] = rot @ np.array([x_pf, y_pf, 0.0])
        return out
