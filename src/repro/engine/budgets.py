"""Per-site link-budget matrices over a constellation ephemeris.

One vectorized NumPy pass per ground site produces the elevation, slant
range, transmissivity and policy-admission matrices of shape
``(n_platforms, n_times)`` that every paper sweep consumes. The tables
built here are shared: the coverage analysis, the request-service
analysis, and the :class:`~repro.engine.linkstate.LinkStateCache` all
read the same arrays instead of re-deriving geometry per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.channels.fso import FSOChannelModel
from repro.data.ground_nodes import GroundNode
from repro.errors import ValidationError
from repro.network.links import LinkPolicy
from repro.orbits.ephemeris import Ephemeris
from repro.orbits.visibility import elevation_and_slant_range_above_horizon

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.store import ArtifactStore
    from repro.faults.plane import FaultPlane

__all__ = [
    "SiteLinkBudget",
    "compute_site_budget",
    "fill_budget_block",
    "LinkBudgetTable",
]


@dataclass(frozen=True)
class SiteLinkBudget:
    """Per-site link-budget matrices against a moving constellation.

    Attributes:
        site: the ground node.
        elevation_rad: shape ``(n_sats, n_times)``; ``-pi/2`` where the
            platform cannot be above the horizon (the cull's sentinel).
        slant_range_km: shape ``(n_sats, n_times)``; ``+inf`` where the
            elevation is the sentinel, so ``np.isfinite`` marks the
            computed points.
        transmissivity: shape ``(n_sats, n_times)``; zero where geometry
            forbids a link (platform below the horizon).
        usable: boolean mask of policy-admitted links.
        usable_healthy: pre-fault admission mask, present only on
            budgets derived through an active
            :class:`~repro.faults.plane.FaultPlane` — lets denial
            attribution tell "blocked only by faults" from physics.
    """

    site: GroundNode
    elevation_rad: np.ndarray
    slant_range_km: np.ndarray
    transmissivity: np.ndarray
    usable: np.ndarray
    usable_healthy: np.ndarray | None = None

    @property
    def healthy_usable(self) -> np.ndarray:
        """Pre-fault admission mask (``usable`` itself when unfaulted)."""
        return self.usable if self.usable_healthy is None else self.usable_healthy

    def at_time_indices(self, indices: np.ndarray) -> "SiteLinkBudget":
        """Budget restricted to the given sample indices (array views)."""
        idx = np.asarray(indices, dtype=int)
        return SiteLinkBudget(
            self.site,
            self.elevation_rad[:, idx],
            self.slant_range_km[:, idx],
            self.transmissivity[:, idx],
            self.usable[:, idx],
            usable_healthy=(
                None if self.usable_healthy is None else self.usable_healthy[:, idx]
            ),
        )


def fill_budget_block(
    el: np.ndarray,
    rng: np.ndarray,
    fso_model: FSOChannelModel,
    policy: LinkPolicy,
    platform_altitude_km: float,
    *,
    horizon_rad: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray]:
    """Transmissivity and admission masks for a block of geometry.

    The shared fill behind :func:`compute_site_budget` (``horizon_rad``
    1e-3) and the link-state cache's ground-satellite group pass
    (``horizon_rad`` 0.0, mirroring ``QuantumChannel.evaluate``), eager
    or windowed.
    """
    above = el > horizon_rad
    eta = np.zeros_like(el)
    if np.any(above):
        eta[above] = np.asarray(
            fso_model.transmissivity(rng[above], el[above], platform_altitude_km)
        )
    usable = (
        above
        & (el >= policy.min_elevation_rad)
        & (eta >= policy.transmissivity_threshold)
    )
    return eta, usable


def compute_site_budget(
    site: GroundNode,
    ephemeris: Ephemeris,
    fso_model: FSOChannelModel,
    *,
    policy: LinkPolicy | None = None,
    platform_altitude_km: float = 500.0,
) -> SiteLinkBudget:
    """One vectorized link-budget pass: site against every platform sample.

    The transmissivity is evaluated only where the platform sits above
    the horizon (``elevation > 1e-3``); everywhere else eta is zero. A
    link is usable when it clears both policy constraints. Geometry is
    computed only where the platform can be above the horizon; culled
    points carry the sentinels of
    :func:`~repro.orbits.visibility.elevation_and_slant_range_above_horizon`.
    """
    policy = policy or LinkPolicy()
    el, rng = elevation_and_slant_range_above_horizon(
        site.lat_rad, site.lon_rad, site.alt_km, ephemeris.positions_ecef_km
    )
    eta, usable = fill_budget_block(
        el, rng, fso_model, policy, platform_altitude_km, horizon_rad=1e-3
    )
    return SiteLinkBudget(site, el, rng, eta, usable)


class LinkBudgetTable:
    """Lazily-computed, shareable collection of :class:`SiteLinkBudget`.

    Args:
        ephemeris: constellation movement sheet.
        sites: ground nodes.
        fso_model: ground-platform channel model.
        policy: link admission policy.
        platform_altitude_km: nominal constellation altitude for slant
            extinction integrals.
        store: optional :class:`~repro.engine.store.ArtifactStore`; when
            set, per-site budgets are loaded from / persisted to the
            content-addressed cache instead of always being recomputed.
        faults: optional compiled :class:`~repro.faults.plane.FaultPlane`;
            when active, each healthy budget is perturbed *after* the
            store/compute step (store artifacts always stay healthy) and
            the derived budget carries the healthy mask alongside.

    Budgets are computed on first access and memoized per site name.
    :meth:`at_time_indices` derives a reduced-horizon table by slicing
    the already-computed matrices, so e.g. the Figs. 7-8 service sweep
    reuses the coverage sweep's full-day pass instead of re-deriving
    geometry for its ~100 sampled steps.
    """

    def __init__(
        self,
        ephemeris: Ephemeris,
        sites: list[GroundNode],
        fso_model: FSOChannelModel,
        *,
        policy: LinkPolicy | None = None,
        platform_altitude_km: float = 500.0,
        store: "ArtifactStore | None" = None,
        faults: "FaultPlane | None" = None,
    ) -> None:
        if not sites:
            raise ValidationError("a link-budget table needs at least one ground site")
        self.ephemeris = ephemeris
        self.sites = list(sites)
        self.fso_model = fso_model
        self.policy = policy or LinkPolicy()
        self.platform_altitude_km = platform_altitude_km
        self.store = store
        self.faults = faults if faults is not None and not faults.is_noop else None
        self._budgets: dict[str, SiteLinkBudget] = {}
        self._ephemeris_fp: dict | None = None

    @property
    def site_names(self) -> list[str]:
        """Names of the covered ground sites."""
        return [s.name for s in self.sites]

    def site(self, name: str) -> GroundNode:
        """Site lookup by node name."""
        for s in self.sites:
            if s.name == name:
                return s
        raise ValidationError(f"unknown site {name!r}")

    def budget(self, site_name: str) -> SiteLinkBudget:
        """Link-budget matrices for one site (computed once, memoized).

        With a backing store, the budget is served from the on-disk
        cache when present and persisted after computation otherwise;
        either way the in-process memo makes repeat lookups free.
        """
        if site_name not in self._budgets:
            if self.store is not None:
                if self._ephemeris_fp is None:
                    from repro.engine.store import ephemeris_fingerprint

                    self._ephemeris_fp = ephemeris_fingerprint(self.ephemeris)
                self._budgets[site_name] = self.store.get_or_build_site_budget(
                    self.site(site_name),
                    self.ephemeris,
                    self.fso_model,
                    policy=self.policy,
                    platform_altitude_km=self.platform_altitude_km,
                    ephemeris_fp=self._ephemeris_fp,
                )
            else:
                self._budgets[site_name] = compute_site_budget(
                    self.site(site_name),
                    self.ephemeris,
                    self.fso_model,
                    policy=self.policy,
                    platform_altitude_km=self.platform_altitude_km,
                )
            if self.faults is not None:
                self._budgets[site_name] = self.faults.faulted_site_budget(
                    self._budgets[site_name], self.ephemeris, self.policy
                )
        return self._budgets[site_name]

    def compute_all(self) -> None:
        """Force computation of every site's budget (full horizon)."""
        for site in self.sites:
            self.budget(site.name)

    def at_time_indices(self, indices: Sequence[int] | np.ndarray) -> "LinkBudgetTable":
        """Table restricted to the given sample indices.

        Every site budget is materialised on the full horizon first and
        then sliced, so the derived table performs no geometry passes of
        its own.
        """
        idx = np.asarray(indices, dtype=int)
        table = LinkBudgetTable(
            self.ephemeris.at_time_indices(idx),
            self.sites,
            self.fso_model,
            policy=self.policy,
            platform_altitude_km=self.platform_altitude_km,
        )
        for site in self.sites:
            table._budgets[site.name] = self.budget(site.name).at_time_indices(idx)
        return table
