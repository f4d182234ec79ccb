"""Ground tracks and regional coverage maps.

Turns an ephemeris into sub-satellite tracks and grids of
"fraction of the day a usable platform is overhead" — the map view of the
paper's coverage metric, used to sanity-check where the constellation's
55 % actually comes from and what the surrounding region would see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.orbits.ephemeris import Ephemeris
from repro.orbits.frames import ecef_to_geodetic
from repro.orbits.visibility import elevation_and_slant_range

__all__ = ["ground_track", "CoverageGrid", "coverage_grid", "render_ascii_map"]


def ground_track(ephemeris: Ephemeris, platform: int | str) -> tuple[np.ndarray, np.ndarray]:
    """Sub-satellite (lat, lon) track of one platform [deg].

    Returns:
        ``(lat_deg, lon_deg)`` arrays over the ephemeris samples, with
        longitude in (-180, 180].
    """
    index = platform if isinstance(platform, int) else ephemeris.index_of(platform)
    lat, lon, _ = ecef_to_geodetic(ephemeris.positions_ecef_km[index])
    lon_deg = np.degrees(lon)
    lon_deg = np.where(lon_deg > 180.0, lon_deg - 360.0, lon_deg)
    return np.degrees(lat), lon_deg


@dataclass(frozen=True)
class CoverageGrid:
    """Fraction-of-time coverage over a lat/lon grid.

    Attributes:
        lats_deg: grid latitudes, ascending, shape ``(n_lat,)``.
        lons_deg: grid longitudes, ascending, shape ``(n_lon,)``.
        fraction: coverage fraction per cell, shape ``(n_lat, n_lon)``.
    """

    lats_deg: np.ndarray
    lons_deg: np.ndarray
    fraction: np.ndarray

    def at(self, lat_deg: float, lon_deg: float) -> float:
        """Coverage fraction of the nearest grid cell."""
        i = int(np.argmin(np.abs(self.lats_deg - lat_deg)))
        j = int(np.argmin(np.abs(self.lons_deg - lon_deg)))
        return float(self.fraction[i, j])


def coverage_grid(
    ephemeris: Ephemeris,
    *,
    lat_range_deg: tuple[float, float] = (33.0, 38.5),
    lon_range_deg: tuple[float, float] = (-90.0, -81.0),
    resolution_deg: float = 0.5,
    min_elevation_rad: float = np.pi / 9,
) -> CoverageGrid:
    """Fraction of samples with >= 1 platform above ``min_elevation_rad``.

    Defaults bound the Tennessee region of the paper's scenario.

    Note: this is the geometric (elevation-only) coverage; the
    transmissivity threshold tightens it further (see
    :class:`repro.core.analysis.SpaceGroundAnalysis`).
    """
    lat_lo, lat_hi = lat_range_deg
    lon_lo, lon_hi = lon_range_deg
    if lat_hi <= lat_lo or lon_hi <= lon_lo or resolution_deg <= 0:
        raise ValidationError("invalid grid specification")
    lats = np.arange(lat_lo, lat_hi + 1e-9, resolution_deg)
    lons = np.arange(lon_lo, lon_hi + 1e-9, resolution_deg)
    fraction = np.empty((lats.size, lons.size))
    for i, lat in enumerate(lats):
        for j, lon in enumerate(lons):
            el, _ = elevation_and_slant_range(
                np.radians(lat), np.radians(lon), 0.0, ephemeris.positions_ecef_km
            )
            fraction[i, j] = float((el >= min_elevation_rad).any(axis=0).mean())
    return CoverageGrid(lats, lons, fraction)


#: Shading ramp for the ASCII map, light to dark.
_SHADES = " .:-=+*#%@"


def render_ascii_map(grid: CoverageGrid, *, markers: dict[str, tuple[float, float]] | None = None) -> str:
    """Render a coverage grid as an ASCII heat map (north at the top).

    Args:
        grid: the coverage grid.
        markers: optional ``{label_char: (lat_deg, lon_deg)}`` overlays
            (e.g. city locations); only the first character is drawn.
    """
    rows: list[str] = []
    marker_cells: dict[tuple[int, int], str] = {}
    if markers:
        for label, (lat, lon) in markers.items():
            i = int(np.argmin(np.abs(grid.lats_deg - lat)))
            j = int(np.argmin(np.abs(grid.lons_deg - lon)))
            marker_cells[(i, j)] = label[0]
    for i in range(grid.lats_deg.size - 1, -1, -1):
        row_chars = []
        for j in range(grid.lons_deg.size):
            if (i, j) in marker_cells:
                row_chars.append(marker_cells[(i, j)])
                continue
            level = int(round(grid.fraction[i, j] * (len(_SHADES) - 1)))
            row_chars.append(_SHADES[min(level, len(_SHADES) - 1)])
        rows.append("".join(row_chars))
    legend = (
        f"lat {grid.lats_deg[0]:.1f}..{grid.lats_deg[-1]:.1f} deg, "
        f"lon {grid.lons_deg[0]:.1f}..{grid.lons_deg[-1]:.1f} deg; "
        f"shade ' {_SHADES[-1]}' = 0..100% of day covered"
    )
    return "\n".join(rows + [legend])
