"""Multi-HAP fleets and placement optimisation.

The paper deploys a single HAP at a hand-picked point. Two natural design
questions follow: where is the *best* hover point, and what does a fleet
of HAPs buy (redundancy against the single point of failure; coverage of
nodes a single platform cannot see)? This module answers both with the
same link budgets the single-HAP analysis uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.channels.fso import FSOChannelModel
from repro.channels.presets import paper_hap_fso
from repro.constants import QNTN_HAP_ALTITUDE_KM
from repro.data.ground_nodes import GroundNode, all_ground_nodes
from repro.errors import ValidationError
from repro.network.links import LinkPolicy
from repro.orbits.frames import geodetic_to_ecef
from repro.orbits.visibility import elevation_and_slant_range

__all__ = [
    "hap_site_transmissivities",
    "min_site_transmissivity",
    "optimize_hap_position",
    "HapFleet",
]


def hap_site_transmissivities(
    hap_lat_deg: float,
    hap_lon_deg: float,
    hap_alt_km: float,
    sites: list[GroundNode],
    fso_model: FSOChannelModel,
) -> np.ndarray:
    """Link transmissivity from one hover point to every site; shape (n,)."""
    hap_pos = geodetic_to_ecef(
        math.radians(hap_lat_deg), math.radians(hap_lon_deg), hap_alt_km
    )
    etas = np.empty(len(sites))
    for i, site in enumerate(sites):
        el, rng = elevation_and_slant_range(
            site.lat_rad, site.lon_rad, site.alt_km, hap_pos[None, :]
        )
        el_f, rng_f = float(el[0]), float(rng[0])
        if el_f <= 0:
            etas[i] = 0.0
        else:
            etas[i] = float(np.asarray(fso_model.transmissivity(rng_f, el_f, hap_alt_km)))
    return etas


def min_site_transmissivity(
    hap_lat_deg: float,
    hap_lon_deg: float,
    *,
    hap_alt_km: float = QNTN_HAP_ALTITUDE_KM,
    sites: list[GroundNode] | None = None,
    fso_model: FSOChannelModel | None = None,
) -> float:
    """The worst site link from a hover point — the placement objective.

    Maximising the minimum link transmissivity maximises the margin above
    the 0.7 threshold for the most disadvantaged node.
    """
    site_list = sites if sites is not None else list(all_ground_nodes())
    model = fso_model or paper_hap_fso()
    return float(
        hap_site_transmissivities(hap_lat_deg, hap_lon_deg, hap_alt_km, site_list, model).min()
    )


def optimize_hap_position(
    *,
    hap_alt_km: float = QNTN_HAP_ALTITUDE_KM,
    sites: list[GroundNode] | None = None,
    fso_model: FSOChannelModel | None = None,
    resolution_deg: float = 0.05,
    margin_deg: float = 0.3,
) -> tuple[float, float, float]:
    """Grid-search the hover point maximising the worst site link.

    The search box spans the sites' bounding box plus ``margin_deg``.

    Returns:
        ``(lat_deg, lon_deg, min_eta)`` of the best grid point.
    """
    site_list = sites if sites is not None else list(all_ground_nodes())
    model = fso_model or paper_hap_fso()
    if resolution_deg <= 0:
        raise ValidationError(f"resolution_deg must be positive, got {resolution_deg}")
    lats = [s.lat_deg for s in site_list]
    lons = [s.lon_deg for s in site_list]
    lat_grid = np.arange(min(lats) - margin_deg, max(lats) + margin_deg, resolution_deg)
    lon_grid = np.arange(min(lons) - margin_deg, max(lons) + margin_deg, resolution_deg)
    best = (float(lat_grid[0]), float(lon_grid[0]), -1.0)
    for lat in lat_grid:
        for lon in lon_grid:
            worst = float(
                hap_site_transmissivities(
                    float(lat), float(lon), hap_alt_km, site_list, model
                ).min()
            )
            if worst > best[2]:
                best = (float(lat), float(lon), worst)
    return best


@dataclass(frozen=True)
class HapFleet:
    """A set of hovering platforms serving the ground sites together.

    Attributes:
        positions: ``(lat_deg, lon_deg)`` hover points.
        alt_km: common hover altitude.
    """

    positions: tuple[tuple[float, float], ...]
    alt_km: float = QNTN_HAP_ALTITUDE_KM

    def __post_init__(self) -> None:
        if not self.positions:
            raise ValidationError("a fleet needs at least one platform")

    def site_best_transmissivities(
        self,
        sites: list[GroundNode] | None = None,
        fso_model: FSOChannelModel | None = None,
    ) -> np.ndarray:
        """Best available platform link per site; shape ``(n_sites,)``."""
        site_list = sites if sites is not None else list(all_ground_nodes())
        model = fso_model or paper_hap_fso()
        best = np.zeros(len(site_list))
        for lat, lon in self.positions:
            etas = hap_site_transmissivities(lat, lon, self.alt_km, site_list, model)
            best = np.maximum(best, etas)
        return best

    def all_sites_served(
        self,
        sites: list[GroundNode] | None = None,
        fso_model: FSOChannelModel | None = None,
        policy: LinkPolicy | None = None,
    ) -> bool:
        """Whether every site clears the admission threshold via some platform."""
        policy = policy or LinkPolicy()
        best = self.site_best_transmissivities(sites, fso_model)
        return bool((best >= policy.transmissivity_threshold).all())

    def survives_single_failure(
        self,
        sites: list[GroundNode] | None = None,
        fso_model: FSOChannelModel | None = None,
        policy: LinkPolicy | None = None,
    ) -> bool:
        """Whether service survives the loss of any one platform.

        The paper's single HAP trivially fails this — its availability
        risk (Section V) motivates fleets.
        """
        if len(self.positions) == 1:
            return False
        for drop in range(len(self.positions)):
            rest = HapFleet(
                tuple(p for i, p in enumerate(self.positions) if i != drop), self.alt_km
            )
            if not rest.all_sites_served(sites, fso_model, policy):
                return False
        return True
