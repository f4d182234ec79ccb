"""Ground-to-platform visibility geometry.

Computes elevation, azimuth and slant range from geodetic ground sites to
moving platforms, plus the derived access windows the paper's coverage
metric (Eqs. 6-7) consumes. The hot kernel is fully vectorized over
``(n_platforms, n_times)``; a scalar reference version backs the tests and
the A5 kernel benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.constants import EARTH_RADIUS_KM
from repro.errors import ValidationError
from repro.orbits.frames import (
    ecef_to_enu_matrix,
    enu_to_azimuth_elevation,
    enu_to_elevation_range,
    geodetic_to_ecef,
)
from repro.utils.intervals import intervals_from_mask

__all__ = [
    "is_visible",
    "geometry_gates",
    "elevation_and_range",
    "elevation_and_slant_range",
    "above_horizon_points",
    "elevation_and_range_scalar",
    "visibility_mask",
    "AccessWindow",
    "access_windows",
    "ground_coverage_radius_km",
]


#: Geometry bits of a ground-to-platform link's gate byte: elevation above
#: the horizon (:func:`is_visible`), at or above the policy minimum, and
#: both (``OPEN``, every gate but the η threshold, as geometry sees it).
VISIBLE, ELEVATED, OPEN = np.uint8(4), np.uint8(8), np.uint8(16)


def is_visible(elevation_rad: np.ndarray | float) -> np.ndarray | bool:
    """The one horizon rule of every budget, gate and channel evaluation:
    a platform is visible when its elevation is > 0 (NaN: not visible)."""
    return elevation_rad > 0.0


def geometry_gates(el: np.ndarray | float, min_elevation_rad: float) -> np.ndarray:
    """``VISIBLE``/``ELEVATED`` bits of elevations ``el`` (NaN: neither),
    and ``OPEN`` where both hold."""
    el = np.asarray(el)
    visible = is_visible(el)
    elevated = el >= min_elevation_rad
    return visible * VISIBLE | elevated * ELEVATED | (visible & elevated) * OPEN


def elevation_and_range(
    site_lat_rad: float,
    site_lon_rad: float,
    site_alt_km: float,
    platform_ecef_km: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Topocentric look angles from one site to many platform positions.

    Args:
        site_lat_rad: site geodetic latitude [rad].
        site_lon_rad: site geodetic longitude [rad].
        site_alt_km: site altitude above the ellipsoid [km].
        platform_ecef_km: platform ECEF positions, shape ``(..., 3)``.

    Returns:
        ``(azimuth, elevation, slant_range)`` arrays of shape ``(...)``
        [rad, rad, km].
    """
    return enu_to_azimuth_elevation(
        _site_enu(site_lat_rad, site_lon_rad, site_alt_km, platform_ecef_km)
    )


def elevation_and_slant_range(
    site_lat_rad: float,
    site_lon_rad: float,
    site_alt_km: float,
    platform_ecef_km: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`elevation_and_range` without the azimuth: ``(elevation,
    slant_range)``, the same floats, for callers that discard it."""
    return enu_to_elevation_range(
        _site_enu(site_lat_rad, site_lon_rad, site_alt_km, platform_ecef_km)
    )


#: Slack [km] of the horizon-plane cull in :func:`above_horizon_points`.
#: Both sides of the cull test and the kernel's ``up`` component are
#: 3-term dot products of ~7,000 km vectors, each rounded by ~1e-12 km; a
#: slack a million times larger keeps every point the kernel puts above
#: the horizon.
HORIZON_CULL_MARGIN_KM = 1e-6

#: Elevation [rad] a dense grid gives a culled point: below every horizon
#: and admission threshold, so it gates like the dense sub-horizon value.
CULLED_ELEVATION_RAD = -math.pi / 2


def above_horizon_points(
    site_lat_rad: float,
    site_lon_rad: float,
    site_alt_km: float,
    platform_ecef_km: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points where the platform can be above the horizon:
    ``(kept, elevation, slant_range)``.

    ``kept`` holds the ascending flat indices, into
    ``platform_ecef_km.shape[:-1]``, of the points the horizon cull
    keeps; ``elevation`` and ``slant_range`` are
    :func:`elevation_and_slant_range` at those points only.

    With ``n`` the site's geodetic up vector (row 2 of
    :func:`~repro.orbits.frames.ecef_to_enu_matrix`) and ``s`` the site's
    ECEF position, a platform at ``p`` has elevation > 0 exactly when
    ``n·p > n·s``. Points with ``n·p > n·s - HORIZON_CULL_MARGIN_KM``
    are kept and run through the unchanged :func:`_site_enu` /
    :func:`~repro.orbits.frames.enu_to_elevation_range` kernel, so their
    floats are bit-equal to the dense pass. The test is exact up to
    rounding of ~1e-12 km against a 1e-6 km margin, for any site, any
    platform altitude and any spread of sites: no point with dense
    elevation > 0 is culled.

    A reader that needs a dense grid gives every culled point elevation
    :data:`CULLED_ELEVATION_RAD` and slant range ``+inf``. Its dense
    elevation was <= 0, so it fails :func:`is_visible`: η, admission
    and the ``VISIBLE``/``ELEVATED`` bits are unchanged. (Under a
    non-positive ``min_elevation_rad`` a culled point drops its
    ``ELEVATED`` bit, which is only ever read together with
    ``VISIBLE``.)
    """
    pos = np.asarray(platform_ecef_km, dtype=float)
    up = ecef_to_enu_matrix(site_lat_rad, site_lon_rad)[2]
    height = float(up @ geodetic_to_ecef(site_lat_rad, site_lon_rad, site_alt_km))
    kept = np.flatnonzero(pos @ up > height - HORIZON_CULL_MARGIN_KM)
    el, rng = elevation_and_slant_range(
        site_lat_rad, site_lon_rad, site_alt_km, pos.reshape(-1, 3)[kept]
    )
    return kept, el, rng


def _site_enu(
    site_lat_rad: float,
    site_lon_rad: float,
    site_alt_km: float,
    platform_ecef_km: np.ndarray,
) -> np.ndarray:
    """Platform positions as ENU vectors at the site, shape ``(..., 3)``."""
    site = geodetic_to_ecef(site_lat_rad, site_lon_rad, site_alt_km)
    t = ecef_to_enu_matrix(site_lat_rad, site_lon_rad)
    delta = np.asarray(platform_ecef_km, dtype=float) - site
    return np.einsum("ij,...j->...i", t, delta)


def elevation_and_range_scalar(
    site_lat_rad: float,
    site_lon_rad: float,
    site_alt_km: float,
    platform_ecef_km: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Loop-based reference implementation of :func:`elevation_and_range`.

    Used in tests to pin the vectorized kernel and in the A5 benchmark to
    quantify the speedup; O(n) python-level iterations.
    """
    pos = np.asarray(platform_ecef_km, dtype=float)
    flat = pos.reshape(-1, 3)
    az = np.empty(flat.shape[0])
    el = np.empty(flat.shape[0])
    rng = np.empty(flat.shape[0])
    site = geodetic_to_ecef(site_lat_rad, site_lon_rad, site_alt_km)
    t = ecef_to_enu_matrix(site_lat_rad, site_lon_rad)
    for i, p in enumerate(flat):
        enu = t @ (p - site)
        east, north, up = enu
        rng[i] = math.sqrt(east**2 + north**2 + up**2)
        az[i] = math.atan2(east, north) % (2.0 * math.pi)
        el[i] = math.asin(up / rng[i]) if rng[i] > 0 else 0.0
    shape = pos.shape[:-1]
    return az.reshape(shape), el.reshape(shape), rng.reshape(shape)


def visibility_mask(
    elevation_rad: np.ndarray, min_elevation_rad: float
) -> np.ndarray:
    """Boolean mask of samples whose elevation clears the constraint."""
    if not np.isfinite(min_elevation_rad):
        raise ValidationError("min_elevation_rad must be finite")
    return np.asarray(elevation_rad, dtype=float) >= min_elevation_rad


@dataclass(frozen=True)
class AccessWindow:
    """A contiguous period during which a platform is visible from a site.

    Attributes:
        start_s: window start time [s].
        end_s: window end time [s].
        peak_elevation_rad: maximum elevation attained inside the window.
    """

    start_s: float
    end_s: float
    peak_elevation_rad: float

    @property
    def duration_s(self) -> float:
        """Window length [s]."""
        return self.end_s - self.start_s


def access_windows(
    times_s: Sequence[float],
    elevation_rad: np.ndarray,
    min_elevation_rad: float,
) -> list[AccessWindow]:
    """Extract access windows from a sampled elevation history.

    Args:
        times_s: strictly increasing sample times, length ``T``.
        elevation_rad: elevation per sample, shape ``(T,)``.
        min_elevation_rad: visibility threshold.

    Returns:
        Windows ordered by start time; each carries its peak elevation.
    """
    t = np.asarray(times_s, dtype=float)
    el = np.asarray(elevation_rad, dtype=float)
    if el.shape != t.shape:
        raise ValidationError(
            f"elevation history shape {el.shape} must match times shape {t.shape}"
        )
    mask = visibility_mask(el, min_elevation_rad)
    intervals = intervals_from_mask(t, mask)
    windows: list[AccessWindow] = []
    for iv in intervals:
        in_window = (t >= iv.start) & (t < iv.end)
        peak = float(np.max(el[in_window])) if np.any(in_window) else float("nan")
        windows.append(AccessWindow(iv.start, iv.end, peak))
    return windows


def ground_coverage_radius_km(
    altitude_km: float, min_elevation_rad: float, earth_radius_km: float = EARTH_RADIUS_KM
) -> float:
    """Great-circle radius of the ground footprint of a platform.

    For a platform at ``altitude_km`` and a minimum elevation constraint,
    the Earth-central half-angle of the visible cap is::

        psi = arccos( R/(R+h) * cos(E) ) - E

    and the footprint radius along the ground is ``R * psi``.
    """
    if altitude_km <= 0:
        raise ValidationError(f"altitude_km must be positive, got {altitude_km}")
    if not 0 <= min_elevation_rad < math.pi / 2:
        raise ValidationError("min_elevation_rad must be in [0, pi/2)")
    ratio = earth_radius_km / (earth_radius_km + altitude_km)
    psi = math.acos(ratio * math.cos(min_elevation_rad)) - min_elevation_rad
    return earth_radius_km * psi
