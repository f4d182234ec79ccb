"""Reference-frame transformations: ECI, ECEF, geodetic, and topocentric ENU.

The inertial frame is a simplified true-equator/mean-equinox frame rotated
into the Earth-fixed frame by Greenwich mean sidereal time (GMST); nutation
and polar motion are far below the 30-second/link-budget resolution of the
QNTN scenario. Geodetic conversions use the WGS-84 ellipsoid (Bowring's
method for the inverse).
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    EARTH_ROTATION_RATE_RAD_S,
    WGS84_A_KM,
    WGS84_B_KM,
    WGS84_E2,
)
from repro.errors import ValidationError

__all__ = [
    "gmst",
    "eci_to_ecef",
    "ecef_to_eci",
    "geodetic_to_ecef",
    "ecef_to_geodetic",
    "ecef_to_enu_matrix",
    "enu_to_azimuth_elevation",
    "enu_to_elevation_range",
]


def gmst(t_s: np.ndarray | float, gmst_epoch_rad: float = 0.0) -> np.ndarray:
    """Greenwich mean sidereal time at simulation time ``t_s`` [rad].

    Args:
        t_s: seconds since the simulation epoch.
        gmst_epoch_rad: GMST at the epoch (default 0 aligns the prime
            meridian with the vernal equinox at t=0, the convention the
            rest of the package assumes).
    """
    t = np.asarray(t_s, dtype=float)
    return np.mod(gmst_epoch_rad + EARTH_ROTATION_RATE_RAD_S * t, 2.0 * np.pi)


def _rotation_z(theta: np.ndarray) -> np.ndarray:
    """Stack of rotation matrices about +z by ``theta``; shape (..., 3, 3)."""
    c = np.cos(theta)
    s = np.sin(theta)
    zeros = np.zeros_like(c)
    ones = np.ones_like(c)
    rot = np.stack(
        [
            np.stack([c, s, zeros], axis=-1),
            np.stack([-s, c, zeros], axis=-1),
            np.stack([zeros, zeros, ones], axis=-1),
        ],
        axis=-2,
    )
    return rot


def eci_to_ecef(
    r_eci_km: np.ndarray, t_s: np.ndarray | float, gmst_epoch_rad: float = 0.0
) -> np.ndarray:
    """Rotate ECI position vectors into the Earth-fixed (ECEF) frame.

    Args:
        r_eci_km: positions with trailing axis 3; shape ``(..., 3)``. The
            leading shape must broadcast against ``t_s``.
        t_s: epoch-relative times [s], broadcastable to ``r_eci_km[..., 0]``.
        gmst_epoch_rad: GMST at the simulation epoch.

    Returns:
        ECEF positions, same shape as ``r_eci_km``.
    """
    r = np.asarray(r_eci_km, dtype=float)
    if r.shape[-1] != 3:
        raise ValidationError(f"positions must have a trailing axis of 3, got {r.shape}")
    theta = gmst(t_s, gmst_epoch_rad)
    rot = _rotation_z(theta)  # ECEF = R_z(gmst) @ ECI
    return np.einsum("...ij,...j->...i", rot, r)


def ecef_to_eci(
    r_ecef_km: np.ndarray, t_s: np.ndarray | float, gmst_epoch_rad: float = 0.0
) -> np.ndarray:
    """Inverse of :func:`eci_to_ecef`."""
    r = np.asarray(r_ecef_km, dtype=float)
    if r.shape[-1] != 3:
        raise ValidationError(f"positions must have a trailing axis of 3, got {r.shape}")
    theta = gmst(t_s, gmst_epoch_rad)
    rot = _rotation_z(-theta)
    return np.einsum("...ij,...j->...i", rot, r)


def geodetic_to_ecef(
    lat_rad: np.ndarray | float,
    lon_rad: np.ndarray | float,
    alt_km: np.ndarray | float = 0.0,
) -> np.ndarray:
    """WGS-84 geodetic coordinates -> ECEF position [km]; shape ``(..., 3)``."""
    lat = np.asarray(lat_rad, dtype=float)
    lon = np.asarray(lon_rad, dtype=float)
    alt = np.asarray(alt_km, dtype=float)
    sin_lat = np.sin(lat)
    n = WGS84_A_KM / np.sqrt(1.0 - WGS84_E2 * sin_lat**2)
    x = (n + alt) * np.cos(lat) * np.cos(lon)
    y = (n + alt) * np.cos(lat) * np.sin(lon)
    z = (n * (1.0 - WGS84_E2) + alt) * sin_lat
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def ecef_to_geodetic(r_ecef_km: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ECEF position -> WGS-84 geodetic (lat [rad], lon [rad], alt [km]).

    Uses Bowring's closed-form approximation, accurate to sub-metre level
    for altitudes from the surface through LEO.
    """
    r = np.asarray(r_ecef_km, dtype=float)
    if r.shape[-1] != 3:
        raise ValidationError(f"positions must have a trailing axis of 3, got {r.shape}")
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    lon = np.arctan2(y, x)
    p = np.hypot(x, y)
    # Bowring's parametric latitude starter followed by one refinement.
    e2p = (WGS84_A_KM**2 - WGS84_B_KM**2) / WGS84_B_KM**2
    theta = np.arctan2(z * WGS84_A_KM, p * WGS84_B_KM)
    lat = np.arctan2(
        z + e2p * WGS84_B_KM * np.sin(theta) ** 3,
        p - WGS84_E2 * WGS84_A_KM * np.cos(theta) ** 3,
    )
    # Two fixed-point refinements take the Bowring starter to sub-mm
    # accuracy through LEO altitudes.
    for _ in range(2):
        sin_lat = np.sin(lat)
        cos_lat = np.cos(lat)
        n = WGS84_A_KM / np.sqrt(1.0 - WGS84_E2 * sin_lat**2)
        with np.errstate(divide="ignore", invalid="ignore"):
            alt = np.where(
                np.abs(cos_lat) > 1e-10,
                p / np.where(np.abs(cos_lat) > 1e-10, cos_lat, 1.0) - n,
                np.abs(z) / np.abs(np.where(sin_lat == 0, 1.0, sin_lat))
                - n * (1.0 - WGS84_E2),
            )
        lat = np.arctan2(z, p * (1.0 - WGS84_E2 * n / (n + alt)))
    sin_lat = np.sin(lat)
    cos_lat = np.cos(lat)
    n = WGS84_A_KM / np.sqrt(1.0 - WGS84_E2 * sin_lat**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        alt = np.where(
            np.abs(cos_lat) > 1e-10,
            p / np.where(np.abs(cos_lat) > 1e-10, cos_lat, 1.0) - n,
            np.abs(z) / np.abs(np.where(sin_lat == 0, 1.0, sin_lat)) - n * (1.0 - WGS84_E2),
        )
    return lat, lon, alt


def ecef_to_enu_matrix(lat_rad: float, lon_rad: float) -> np.ndarray:
    """Rotation matrix taking ECEF difference vectors to local ENU axes.

    Returns:
        3x3 matrix ``T`` such that ``enu = T @ (r_target - r_site)``.
    """
    sin_lat, cos_lat = np.sin(lat_rad), np.cos(lat_rad)
    sin_lon, cos_lon = np.sin(lon_rad), np.cos(lon_rad)
    return np.array(
        [
            [-sin_lon, cos_lon, 0.0],
            [-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat],
            [cos_lat * cos_lon, cos_lat * sin_lon, sin_lat],
        ]
    )


def enu_to_azimuth_elevation(
    enu_km: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ENU vectors -> (azimuth [rad], elevation [rad], slant range [km]).

    Azimuth is measured clockwise from North; elevation from the local
    horizontal plane. Works on any ``(..., 3)`` stack.
    """
    elevation, rng = enu_to_elevation_range(enu_km)
    enu = np.asarray(enu_km, dtype=float)
    azimuth = np.mod(np.arctan2(enu[..., 0], enu[..., 1]), 2.0 * np.pi)
    return azimuth, elevation, rng


def enu_to_elevation_range(enu_km: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ENU vectors -> (elevation [rad], slant range [km]).

    :func:`enu_to_azimuth_elevation` without the azimuth, for callers
    that discard it; the two values are the same floats.
    """
    enu = np.asarray(enu_km, dtype=float)
    if enu.shape[-1] != 3:
        raise ValidationError(f"ENU vectors must have a trailing axis of 3, got {enu.shape}")
    east, north, up = enu[..., 0], enu[..., 1], enu[..., 2]
    rng = np.sqrt(east**2 + north**2 + up**2)
    with np.errstate(invalid="ignore"):
        elevation = np.where(rng > 0, np.arcsin(np.clip(up / np.where(rng == 0, 1, rng), -1, 1)), 0.0)
    return elevation, rng
