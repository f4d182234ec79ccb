"""Coverage-period analysis (paper Eqs. 6-7, Fig. 6).

Coverage is the total time during which every LAN pair is bridged by at
least one usable satellite link on both sides. The per-sample mask comes
from :class:`~repro.core.analysis.SpaceGroundAnalysis`; this module turns
it into intervals, T_c minutes, and the percentage P of the day.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.utils.intervals import Interval, intervals_from_mask

__all__ = [
    "CoverageResult",
    "coverage_from_mask",
    "outage_intervals",
    "check_sweep_sizes",
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
    so they must strictly ascend and start at one satellite or more: a
    size of 0 would read the full constellation through
    ``cumulative[-1]``, and a repeated size would serve and count its
    requests twice. They are integers (NumPy's too) and never ``bool``:
    a float or a string cannot index a prefix, and ``True`` would read
    as one satellite.
    """
    sizes = list(sizes)
    for n in sizes:
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValidationError(f"sweep sizes must be integers, got {n!r}")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValidationError("sweep sizes must be strictly ascending (prefix property)")
    if sizes and sizes[0] < 1:
        raise ValidationError(f"sweep sizes must be >= 1 satellite, got {sizes[0]}")
