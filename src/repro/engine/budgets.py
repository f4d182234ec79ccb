"""Per-site link budgets over a constellation ephemeris.

One vectorized NumPy pass per ground site produces the budget of every
``(platform, sample)`` point the horizon cull keeps: elevation, slant
range, transmissivity and policy admission, as one record array. That
record array is the only form a budget takes — the cold fill writes it,
the artifact store persists and loads it, a sweep slices it and a
process pool shares it. Readers that index by ``(platform, sample)``
get read-only dense ``(n_platforms, n_times)`` views, scattered from the
records on first access. The tables built here are shared: the coverage
analysis and the request-service analysis read the same budgets instead
of re-deriving geometry per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.channels.fso import FSOChannelModel
from repro.data.ground_nodes import GroundNode
from repro.errors import ValidationError
from repro.network.links import LinkPolicy
from repro.orbits.ephemeris import Ephemeris
from repro.orbits.visibility import CULLED_ELEVATION_RAD, above_horizon_points, is_visible

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.store import ArtifactStore
    from repro.faults.plane import FaultPlane

__all__ = [
    "POINT_DTYPE",
    "SiteLinkBudget",
    "compute_site_budget",
    "fill_budget_block",
    "LinkBudgetTable",
]

#: One record per kept point of a site budget: its flat index into the
#: ``(n_platforms, n_times)`` grid and the four budget values there. The
#: artifact store persists these records as they are (schema 3).
POINT_DTYPE = np.dtype(
    [
        ("index", "<i8"),
        ("elevation_rad", "<f8"),
        ("slant_range_km", "<f8"),
        ("transmissivity", "<f8"),
        ("usable", "?"),
    ]
)


def _scatter(
    index: np.ndarray, values: np.ndarray, shape: tuple[int, int], fill: float | bool
) -> np.ndarray:
    """Read-only dense array of ``shape``: ``values`` at the flat
    ``index``, ``fill`` everywhere else."""
    out = np.full(shape, fill, dtype=values.dtype)
    out.reshape(-1)[index] = values
    out.flags.writeable = False
    return out


def _dense_view(name: str, fill: float | bool) -> cached_property:
    """The dense view of record field ``name``, scattered on first access."""
    return cached_property(
        lambda self: _scatter(self.points["index"], self.points[name], self.shape, fill)
    )


@dataclass(frozen=True)
class SiteLinkBudget:
    """One site's link budget against a moving constellation.

    Attributes:
        site: the ground node.
        shape: ``(n_sats, n_times)`` of the budget grid.
        points: :data:`POINT_DTYPE` records of the points the horizon
            cull keeps (~5 % of a day), in ascending index order.
        usable_healthy: pre-fault admission of each record, present only
            on budgets derived through an active
            :class:`~repro.faults.plane.FaultPlane` — lets denial
            attribution tell "blocked only by faults" from physics.

    A point without a record was culled: the platform cannot be above
    the horizon there. The dense ``shape`` views ``elevation_rad``,
    ``slant_range_km``, ``transmissivity`` and ``usable`` are read-only
    and scattered from the records on first access; a culled point
    reads elevation ``-pi/2`` (the cull's sentinel), slant range
    ``+inf`` (so ``np.isfinite`` marks the records), transmissivity 0
    and not usable.
    """

    site: GroundNode
    shape: tuple[int, int]
    points: np.ndarray
    usable_healthy: np.ndarray | None = None

    elevation_rad = _dense_view("elevation_rad", CULLED_ELEVATION_RAD)
    slant_range_km = _dense_view("slant_range_km", np.inf)
    transmissivity = _dense_view("transmissivity", 0.0)
    usable = _dense_view("usable", False)

    @cached_property
    def healthy_usable(self) -> np.ndarray:
        """Pre-fault admission mask (``usable`` itself when unfaulted)."""
        if self.usable_healthy is None:
            return self.usable
        return _scatter(self.points["index"], self.usable_healthy, self.shape, False)

    def at_time_indices(self, indices: Sequence[int] | np.ndarray) -> "SiteLinkBudget":
        """Budget restricted to the given sample indices.

        Keeps the records whose sample is in ``indices`` and re-indexes
        them onto the ``(n_sats, len(indices))`` grid. The indices must
        be strictly increasing and inside the grid, else
        :class:`~repro.errors.ValidationError`.
        """
        idx = np.asarray(indices, dtype=int)
        n_sats, n_times = self.shape
        if idx.ndim != 1 or np.any(np.diff(idx) <= 0) or np.any((idx < 0) | (idx >= n_times)):
            raise ValidationError(
                f"sample indices must be strictly increasing and in [0, {n_times})"
            )
        column = np.full(n_times, -1)
        column[idx] = np.arange(idx.size)
        row, sample = np.divmod(self.points["index"], n_times)
        col = column[sample]
        kept = col >= 0
        points = self.points[kept]
        points["index"] = row[kept] * idx.size + col[kept]
        return SiteLinkBudget(
            self.site,
            (n_sats, idx.size),
            points,
            None if self.usable_healthy is None else self.usable_healthy[kept],
        )


def fill_budget_block(
    el: np.ndarray,
    rng: np.ndarray,
    fso_model: FSOChannelModel,
    policy: LinkPolicy,
    platform_altitude_km: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Transmissivity and admission masks for a block of geometry: η
    where the platform is visible (the one horizon rule,
    :func:`~repro.orbits.visibility.is_visible`), 0 elsewhere; usable
    where it clears both policy constraints. :func:`compute_site_budget`
    runs it on the kept points."""
    above = is_visible(el)
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

    Geometry runs only on the points
    :func:`~repro.orbits.visibility.above_horizon_points` keeps, and
    the budget holds just those records, filled by
    :func:`fill_budget_block`. They are the one ground-satellite link
    budget: the sweep's tables, the artifact store and the link state's
    ground-satellite columns all read them.
    """
    policy = policy or LinkPolicy()
    kept, el, rng = above_horizon_points(
        site.lat_rad, site.lon_rad, site.alt_km, ephemeris.positions_ecef_km
    )
    eta, usable = fill_budget_block(el, rng, fso_model, policy, platform_altitude_km)
    points = np.empty(kept.size, dtype=POINT_DTYPE)
    points["index"] = kept
    points["elevation_rad"] = el
    points["slant_range_km"] = rng
    points["transmissivity"] = eta
    points["usable"] = usable
    return SiteLinkBudget(site, (ephemeris.n_platforms, ephemeris.n_samples), points)


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
    the already-computed records, so e.g. the Figs. 7-8 service sweep
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
        """Link budget of one site (computed once, memoized).

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
        then sliced (:meth:`SiteLinkBudget.at_time_indices`), so the
        derived table performs no geometry passes of its own. The
        indices must be strictly increasing.
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
