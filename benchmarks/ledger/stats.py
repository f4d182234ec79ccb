"""Order statistics for the ledger: supported percentiles and quartiles."""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np

__all__ = [
    "MIN_BEYOND",
    "UnsupportedPercentile",
    "percentile",
    "quartiles",
    "require_support",
]

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class UnsupportedPercentile(ValueError):
    """Too few samples lie beyond the requested percentile."""


def require_support(n: int, q: float) -> None:
    """Refuse the ``q``-th percentile of ``n`` samples below :data:`MIN_BEYOND`."""
    beyond = n * (100.0 - q) / 100.0
    if beyond < MIN_BEYOND:
        raise UnsupportedPercentile(
            f"p{q:g} of {n} samples has {beyond:.1f} beyond it; need {MIN_BEYOND}"
        )


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (NumPy's linear rule), if the sample supports it."""
    require_support(len(samples), q)
    return float(np.percentile(samples, q))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` by ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)
