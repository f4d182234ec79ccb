"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` lives per process (module singleton,
:func:`registry`). Hot paths create their instruments once at import time
(:func:`counter` / :func:`gauge` / :func:`histogram` are get-or-create,
so the same name always resolves to the same object) and record through
them unconditionally; every record method starts with a single
``enabled`` flag check, so with telemetry off the cost of an instrumented
call site is one attribute load and one branch — the disabled-mode
overhead contract gated by ``benchmarks/bench_obs_overhead.py``.

Cross-process aggregation: a worker snapshots the registry at task entry
and exit and ships the :func:`metrics_delta` of the two back to the
parent, which folds it in with :meth:`MetricsRegistry.merge`. With the
fork start method workers inherit the parent's counts, with spawn they
start from zero — the entry-baseline subtraction makes both cases merge
to the same totals.

Counters and histograms merge additively; gauges are last-write-wins
(a merged gauge takes the incoming sample, which for worker-reported
gauges is the worker's final value).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Mapping

from repro.errors import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_delta",
    "registry",
]

#: Default histogram buckets (upper bounds) for unit-interval quantities.
UNIT_INTERVAL_BUCKETS = (0.5, 0.8, 0.9, 0.92, 0.94, 0.96, 0.98, 1.0)


class Counter:
    """Monotonically increasing count (requests served, cache hits, ...)."""

    __slots__ = ("name", "_registry", "value")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (no-op while the registry is disabled)."""
        if self._registry.enabled:
            self.value += n

    def reset_values(self) -> None:
        self.value = 0.0

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-observed value (arena bytes, worker count, ...)."""

    __slots__ = ("name", "_registry", "value")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value (no-op while disabled)."""
        if self._registry.enabled:
            self.value = float(value)

    def add(self, delta: float) -> None:
        """Shift the current value (no-op while disabled)."""
        if self._registry.enabled:
            self.value += delta

    def reset_values(self) -> None:
        self.value = 0.0

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with exact sum/count (so the mean is exact).

    ``bounds`` are inclusive upper bucket edges; one overflow bucket
    catches everything above the last edge. Bucket counts lose per-sample
    resolution but ``sum``/``count``/``min``/``max`` are tracked exactly,
    so :attr:`mean` equals the arithmetic mean of every observed value —
    the property the run-manifest acceptance check relies on.
    """

    __slots__ = (
        "name",
        "_registry",
        "bounds",
        "bucket_counts",
        "count",
        "sum",
        "min",
        "max",
        "exemplars",
    )

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        bounds: tuple[float, ...] = UNIT_INTERVAL_BUCKETS,
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValidationError(f"histogram bounds must be ascending, got {bounds!r}")
        self.name = name
        self._registry = registry
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: bucket index -> (value, trace_id) of the slowest exemplar seen
        #: in that bucket; populated only through
        #: :meth:`observe_with_exemplar`, cleared by :meth:`reset_values`.
        self.exemplars: dict[int, tuple[float, str]] = {}

    def observe(self, value: float) -> None:
        """Record one sample (no-op while disabled)."""
        if self._registry.enabled:
            self.add(value)

    def observe_with_exemplar(self, value: float, trace_id: str | None) -> None:
        """Record one sample, retaining ``trace_id`` as the bucket's
        exemplar when ``value`` is the largest seen in its bucket.

        The exemplar links an aggregate latency bucket to one concrete
        trace in the recording (:mod:`repro.obs.events`) — the slowest
        observation per bucket, so an SLO breach points at a trace worth
        opening. ``trace_id=None`` degrades to :meth:`observe`.
        """
        if self._registry.enabled:
            self.add(value, trace_id)

    def add(self, value: float, trace_id: str | None = None) -> None:
        """Record one sample regardless of the enabled flag.

        The write behind :meth:`observe`; a windowed histogram
        (:mod:`repro.obs.live`) calls it directly, under its own switch,
        to keep its all-time view.
        """
        i = bisect_left(self.bounds, value)
        self.bucket_counts[i] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if trace_id is not None:
            current = self.exemplars.get(i)
            if current is None or value > current[0]:
                self.exemplars[i] = (value, trace_id)

    @property
    def mean(self) -> float:
        """Exact mean of all observations (NaN when empty)."""
        return self.sum / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (NaN when empty).

        Walks the cumulative bucket counts to the bucket holding the
        ``q``-th sample and interpolates linearly inside it, clamping
        the bucket edges to the exact observed ``min``/``max`` (so the
        first/last buckets and single-sample histograms stay tight).
        Resolution is bounded by the bucket layout — pick latency-scaled
        buckets for latency quantiles.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {q!r}")
        if not self.count:
            return float("nan")
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            cumulative += n
            if n and cumulative >= target:
                lo = self.bounds[i - 1] if i > 0 else self.min
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                return lo + (hi - lo) * (target - (cumulative - n)) / n
        return self.max

    def reset_values(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.exemplars.clear()

    def snapshot(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "type": "histogram",
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
        }
        if self.count:
            out.update(mean=self.mean, min=self.min, max=self.max)
        if self.exemplars:
            out["exemplars"] = {
                str(i): {"value": v, "trace_id": t}
                for i, (v, t) in sorted(self.exemplars.items())
            }
        return out


class MetricsRegistry:
    """Name-addressed instrument store with one process-wide instance.

    Instruments are created once and never removed; :meth:`reset` zeroes
    their values in place, so references cached at import time by hot
    modules stay live across resets.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        # Values are Counter/Gauge/Histogram or the windowed variants of
        # repro.obs.live, which register through the same factory and
        # keep their all-time state in a plain instrument registered
        # under the series' cumulative name.
        self._metrics: dict[str, Any] = {}

    # --- instrument factories (get-or-create) -------------------------------

    def _get_or_create(self, name: str, kind: type, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValidationError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, requested {kind.__name__}"
                    )
                return existing
            instrument = kind(name, self, **kwargs)
            self._metrics[name] = instrument
            return instrument

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        """The histogram named ``name``, created on first use.

        ``buckets`` only applies on creation; later lookups return the
        existing instrument regardless.
        """
        if buckets is None:
            return self._get_or_create(name, Histogram)
        return self._get_or_create(name, Histogram, bounds=tuple(buckets))

    # --- aggregation ---------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Plain-dict copy of every instrument (JSON- and pickle-safe)."""
        with self._lock:
            return {name: m.snapshot() for name, m in self._metrics.items()}

    def merge(self, snapshot: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold a snapshot (typically a worker's delta) into this registry.

        Counters and histograms add; gauges take the incoming value.
        Instruments absent locally are created. Histogram bucket layouts
        must match — a mismatch raises rather than mis-binning. Windowed
        rings (:mod:`repro.obs.live`) are process-local — a sliding
        window is only meaningful against the wall clock that drove it —
        so their snapshot entries are skipped; the all-time view a
        windowed instrument keeps is a plain entry under its cumulative
        name and merges like any other.
        """
        for name, data in snapshot.items():
            kind = data.get("type")
            if isinstance(kind, str) and kind.startswith("windowed_"):
                continue
            if kind == "counter":
                self.counter(name).value += float(data["value"])
            elif kind == "gauge":
                self.gauge(name).value = float(data["value"])
            elif kind == "histogram":
                hist = self.histogram(name, buckets=tuple(data["bounds"]))
                if list(hist.bounds) != list(data["bounds"]):
                    raise ValidationError(
                        f"histogram {name!r} bucket bounds mismatch on merge"
                    )
                incoming = data["bucket_counts"]
                for i, n in enumerate(incoming):
                    hist.bucket_counts[i] += int(n)
                hist.count += int(data["count"])
                hist.sum += float(data["sum"])
                if int(data["count"]):
                    hist.min = min(hist.min, float(data["min"]))
                    hist.max = max(hist.max, float(data["max"]))
            else:
                raise ValidationError(f"cannot merge metric {name!r} of type {kind!r}")

    def reset(self) -> None:
        """Zero every instrument in place (registrations survive).

        Dispatches through ``reset_values`` so the windowed instruments
        of :mod:`repro.obs.live` — registered here alongside the
        cumulative ones — clear their rings under the same call.
        """
        with self._lock:
            for m in self._metrics.values():
                m.reset_values()


def metrics_delta(
    end: Mapping[str, Mapping[str, Any]], start: Mapping[str, Mapping[str, Any]]
) -> dict[str, dict[str, Any]]:
    """Per-instrument difference of two snapshots (``end`` minus ``start``).

    Used by worker tasks to report only what *they* recorded, regardless
    of any state inherited from the parent at fork. Counters and
    histogram counts/sums subtract; gauges and histogram min/max keep the
    ``end`` values (a true min/max of the delta window is unrecoverable
    from aggregates — the end values are the safe approximation).
    Instruments with nothing recorded in the window are dropped, as are
    windowed (process-local) instruments — they fall through the type
    dispatch by design.
    """
    delta: dict[str, dict[str, Any]] = {}
    for name, data in end.items():
        before = start.get(name)
        kind = data.get("type")
        if kind == "counter":
            value = data["value"] - (before["value"] if before else 0.0)
            if value:
                delta[name] = {"type": "counter", "value": value}
        elif kind == "gauge":
            if before is None or data["value"] != before["value"]:
                delta[name] = {"type": "gauge", "value": data["value"]}
        elif kind == "histogram":
            base_counts = before["bucket_counts"] if before else [0] * len(data["bucket_counts"])
            counts = [int(n) - int(b) for n, b in zip(data["bucket_counts"], base_counts)]
            count = int(data["count"]) - (int(before["count"]) if before else 0)
            if count:
                delta[name] = {
                    "type": "histogram",
                    "bounds": list(data["bounds"]),
                    "bucket_counts": counts,
                    "count": count,
                    "sum": data["sum"] - (float(before["sum"]) if before else 0.0),
                    "min": data.get("min", float("inf")),
                    "max": data.get("max", float("-inf")),
                }
    return delta


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry."""
    return _REGISTRY
