"""Coverage-period analysis (paper Eqs. 6-7, Fig. 6).

Coverage is the total time during which every LAN pair is bridged by at
least one usable satellite link on both sides. The per-sample mask comes
from :class:`~repro.core.analysis.SpaceGroundAnalysis`; this module turns
it into intervals, T_c minutes, and the percentage P of the day.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro import obs
from repro.channels.fso import FSOChannelModel
from repro.channels.presets import paper_satellite_fso
from repro.core.analysis import SpaceGroundAnalysis
from repro.data.ground_nodes import GroundNode, all_ground_nodes
from repro.errors import ValidationError
from repro.network.links import LinkPolicy
from repro.orbits.ephemeris import Ephemeris, generate_movement_sheet
from repro.orbits.walker import qntn_constellation
from repro.utils.intervals import Interval, intervals_from_mask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.store import ArtifactStore

__all__ = [
    "CoverageResult",
    "coverage_from_mask",
    "outage_intervals",
    "check_sweep_sizes",
    "constellation_coverage_sweep",
]


@dataclass(frozen=True)
class CoverageResult:
    """Coverage of one constellation configuration.

    Attributes:
        n_satellites: constellation size.
        intervals: connected intervals over the horizon.
        total_minutes: T_c, Eq. 6 [min].
        percentage: P, Eq. 7 [%].
    """

    n_satellites: int
    intervals: tuple[Interval, ...]
    total_minutes: float
    percentage: float


def coverage_from_mask(
    times_s: Sequence[float],
    mask: np.ndarray,
    *,
    n_satellites: int,
    horizon_s: float,
) -> CoverageResult:
    """Convert a per-sample connectivity mask into a :class:`CoverageResult`."""
    intervals = tuple(intervals_from_mask(np.asarray(times_s, dtype=float), mask))
    total_s = sum(iv.duration for iv in intervals)
    return CoverageResult(
        n_satellites=n_satellites,
        intervals=intervals,
        total_minutes=total_s / 60.0,
        percentage=100.0 * total_s / horizon_s,
    )


def outage_intervals(
    times_s: Sequence[float], mask: np.ndarray
) -> tuple[Interval, ...]:
    """Contiguous *disconnected* windows — the complement timeline.

    The same half-open interval semantics as the coverage intervals
    (:func:`repro.utils.intervals.intervals_from_mask` on the inverted
    mask), so outage and coverage durations partition the horizon.
    """
    inverted = ~np.asarray(mask, dtype=bool)
    return tuple(intervals_from_mask(np.asarray(times_s, dtype=float), inverted))


def check_sweep_sizes(sizes: Sequence[int]) -> None:
    """Reject constellation-prefix sizes a sweep cannot read.

    Sizes index the cumulative prefix analysis (``cumulative[n - 1]``),
    so they must ascend and start at one satellite or more: a size of 0
    would read the full constellation through ``cumulative[-1]``.
    """
    sizes = list(sizes)
    if sorted(sizes) != sizes:
        raise ValidationError("sweep sizes must be ascending (prefix property)")
    if sizes and sizes[0] < 1:
        raise ValidationError(f"sweep sizes must be >= 1 satellite, got {sizes[0]}")


def constellation_coverage_sweep(
    n_satellites_list: Sequence[int],
    *,
    sites: list[GroundNode] | None = None,
    fso_model: FSOChannelModel | None = None,
    policy: LinkPolicy | None = None,
    duration_s: float = 86400.0,
    step_s: float = 30.0,
    ephemeris_factory: Callable[[int], Ephemeris] | None = None,
    use_cache: bool = True,
    store: "ArtifactStore | None" = None,
) -> list[CoverageResult]:
    """Coverage percentage versus constellation size (Fig. 6).

    The full 108-satellite ephemeris is generated once; each sweep point
    analyses the prefix subset, matching the paper's incremental
    deployment order (Table II).

    Args:
        n_satellites_list: constellation sizes, e.g. ``range(6, 109, 6)``;
            ascending and >= 1 (:func:`check_sweep_sizes`).
        sites: ground nodes; defaults to Table I.
        fso_model: defaults to the calibrated paper preset.
        policy: defaults to the paper thresholds.
        duration_s / step_s: analysis horizon and cadence.
        ephemeris_factory: override for testing (maps size -> ephemeris).
        use_cache: evaluate every size from one full-constellation
            link-budget pass (cumulative ORs over the satellite axis, the
            paper's prefix property) instead of one geometry pass per
            size. Ignored when ``ephemeris_factory`` is given — a custom
            factory need not produce prefix subsets. The direct per-size
            path (``False``) produces identical masks and is kept as the
            test oracle.
        store: :class:`~repro.engine.store.ArtifactStore` for cross-run
            caching of the ephemeris and (on the cached path) the budget
            matrices; defaults to the process-wide
            :func:`~repro.engine.store.default_store`.
    """
    sizes = list(n_satellites_list)
    check_sweep_sizes(sizes)
    if not sizes:
        return []
    site_list = sites if sites is not None else list(all_ground_nodes())
    model = fso_model or paper_satellite_fso()

    if store is None:
        from repro.engine.store import default_store

        store = default_store()

    if ephemeris_factory is None:
        with obs.span("propagate"):
            elements = qntn_constellation(max(sizes))
            if store is not None:
                full = store.get_or_build_ephemeris(
                    elements, duration_s=duration_s, step_s=step_s
                )
            else:
                full = generate_movement_sheet(
                    elements, duration_s=duration_s, step_s=step_s
                )
        if use_cache:
            from repro.engine.budgets import LinkBudgetTable

            table = LinkBudgetTable(full, site_list, model, policy=policy, store=store)
            analysis = SpaceGroundAnalysis(
                full, site_list, model, policy=policy, budgets=table
            )
            with obs.span("budget"):
                table.compute_all()
            with obs.span("route"):
                cumulative = analysis.cumulative_all_pairs_connected()
            return [
                coverage_from_mask(
                    full.times_s,
                    cumulative[n - 1],
                    n_satellites=n,
                    horizon_s=duration_s,
                )
                for n in sizes
            ]

        def ephemeris_factory(n: int) -> Ephemeris:
            return full.subset(range(n))

    results: list[CoverageResult] = []
    for n in sizes:
        eph = ephemeris_factory(n)
        analysis = SpaceGroundAnalysis(eph, site_list, model, policy=policy)
        with obs.span("route"):
            mask = analysis.all_pairs_connected()
        results.append(
            coverage_from_mask(
                eph.times_s, mask, n_satellites=n, horizon_s=duration_s
            )
        )
    return results
