"""Windowed (live) metrics: sliding-window rates and rolling quantiles.

The cumulative instruments of :mod:`repro.obs.metrics` answer "what
happened over the whole run" — the right shape for end-of-run manifests,
useless for an operator watching a long-lived :class:`ServeServer`. This
module adds the live variants: each instrument keeps a ring buffer of
fixed-duration buckets covering the last ``window_s`` seconds, so it can
answer "what is happening *now*" — per-second rates for counters, the
last observation per bucket for gauges, and rolling quantiles over exact
retained samples for histograms.

Windowed instruments register in the same process-wide
:class:`~repro.obs.metrics.MetricsRegistry` as the cumulative ones (one
``enabled`` switch governs both, ``obs.reset()`` zeroes both). Each one
is the only instrument of its series: it also keeps the series'
all-time state (``all_time`` — a plain counter, gauge or fixed-bucket
histogram), and when its factory is given a ``total_name`` that state
is the registry entry of that name. One write per event therefore
feeds both views, and the registry snapshot — hence the run manifest
and the Prometheus dump — carries the series under both names. The
live plane can additionally be switched on *alone* via :func:`force`:
windowed instruments (all-time views included) then record while the
registry — and with it span profiling and the engine metrics — stays
disabled, which is how a production ``repro serve --http-port`` run
keeps its scrape endpoints hot at a fraction of the full-telemetry
cost. The rings are deliberately *process-local*: worker deltas drop
them and :meth:`MetricsRegistry.merge` skips them, because a sliding
window only means something on the process whose wall clock drives it;
the all-time entries travel and merge like any other instrument.

Time comes from one module-level monotonic clock, injectable via
:func:`set_clock` — deterministic tests drive a fake clock forward and
get bit-reproducible rates and quantiles; production leaves the default
``time.monotonic``. Sub-window queries are first-class: a single
60-second instrument answers ``rate(window_s=5)`` for the fast leg of a
multi-window SLO burn-rate rule (:mod:`repro.obs.slo`) without a second
ring.

Quantiles are *exact*, not bucket-interpolated: each histogram bucket
retains its samples, and :meth:`WindowedHistogram.quantile` computes the
same linear-interpolation quantile as ``numpy.quantile`` over every
sample still inside the window. Memory is therefore O(arrival rate x
window) — bounded for any fixed window, and the acceptance contract
(windowed quantile == offline quantile to 1e-12 when the window covers
the whole run) holds with no resolution caveat.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable

from repro.errors import ValidationError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, registry

__all__ = [
    "DEFAULT_BUCKET_S",
    "DEFAULT_WINDOW_S",
    "WindowedCounter",
    "WindowedGauge",
    "WindowedHistogram",
    "force",
    "forced",
    "now",
    "set_clock",
    "windowed_counter",
    "windowed_gauge",
    "windowed_histogram",
]

#: Default sliding-window span [s].
DEFAULT_WINDOW_S = 60.0
#: Default ring-bucket duration [s].
DEFAULT_BUCKET_S = 1.0

_CLOCK: Callable[[], float] = time.monotonic

# Standalone switch for the live plane: when True, windowed instruments
# record even while the registry (and with it the heavyweight diagnostic
# telemetry — spans, traces, cumulative engine metrics) stays disabled.
# This is what lets `repro serve --http-port` keep its observability
# endpoints hot without paying the full-telemetry tax on the serving
# path; the live-mode overhead bench gates exactly this configuration.
_FORCED = False


def now() -> float:
    """The current reading of the live-metrics clock."""
    return _CLOCK()


def force(on: bool) -> bool:
    """Enable the live plane independently of the registry switch.

    Returns the previous setting so callers can restore it. Full
    telemetry (``obs.enable()``) subsumes this — forcing matters only
    when the registry is disabled.
    """
    global _FORCED
    previous = _FORCED
    _FORCED = bool(on)
    return previous


def forced() -> bool:
    """Whether the live plane is force-enabled."""
    return _FORCED


def set_clock(clock: Callable[[], float] | None) -> Callable[[], float]:
    """Replace the module clock (``None`` restores ``time.monotonic``).

    Every windowed instrument reads time through this hook, so a test
    can drive all of them deterministically with one fake. Returns the
    previous clock so callers can restore it.
    """
    global _CLOCK
    previous = _CLOCK
    _CLOCK = clock if clock is not None else time.monotonic
    return previous


class _Ring:
    """Shared ring-buffer mechanics: bucket alignment, expiry, iteration.

    Buckets are aligned to absolute bucket indices (``floor(t / bucket_s)``)
    rather than relative offsets, so two instruments on the same clock
    expire the same instants identically — what makes windowed rates
    comparable across instruments in one SLO rule.
    """

    __slots__ = ("window_s", "bucket_s", "n_buckets", "_indices", "_slots")

    def __init__(self, window_s: float, bucket_s: float, make_slot) -> None:
        if not window_s > 0 or not bucket_s > 0:
            raise ValidationError(
                f"window_s and bucket_s must be > 0, got {window_s!r}/{bucket_s!r}"
            )
        if bucket_s > window_s:
            raise ValidationError(
                f"bucket_s {bucket_s!r} exceeds window_s {window_s!r}"
            )
        self.window_s = float(window_s)
        self.bucket_s = float(bucket_s)
        self.n_buckets = int(math.ceil(self.window_s / self.bucket_s))
        self._indices = [-1] * self.n_buckets  # absolute bucket index, -1 = empty
        self._slots = [make_slot() for _ in range(self.n_buckets)]

    def slot_at(self, now: float):
        """The (fresh or reused) slot for the bucket containing ``now``."""
        index = int(now // self.bucket_s)
        pos = index % self.n_buckets
        if self._indices[pos] != index:
            self._indices[pos] = index
            self._slots[pos] = type(self._slots[pos])()
        return self._slots[pos]

    def live_slots(self, now: float, window_s: float | None = None):
        """Slots still inside ``window_s`` (default: the full window).

        A bucket is live when it overlaps ``(now - window_s, now]`` —
        the bucket currently being written always is.
        """
        span = self.window_s if window_s is None else min(window_s, self.window_s)
        if not span > 0:
            raise ValidationError(f"window_s must be > 0, got {window_s!r}")
        current = int(now // self.bucket_s)
        oldest = int((now - span) // self.bucket_s)
        for pos, index in enumerate(self._indices):
            if oldest < index <= current or (index == oldest and index >= 0):
                yield self._slots[pos]

    def covered_s(self, window_s: float | None = None) -> float:
        """Seconds of the query window that rates should divide by."""
        return self.window_s if window_s is None else min(window_s, self.window_s)

    def clear(self) -> None:
        self._indices = [-1] * self.n_buckets
        self._slots = [type(self._slots[0])() for _ in range(self.n_buckets)]


class _CountSlot:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0.0


class _GaugeSlot:
    __slots__ = ("last", "min", "max", "n")

    def __init__(self) -> None:
        self.last = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.n = 0


class _SampleSlot:
    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: list[float] = []


class WindowedCounter:
    """Sliding-window event counter: per-second rates over the last N s.

    ``all_time`` is the series' monotonic count — a plain
    :class:`~repro.obs.metrics.Counter`, registered under the series'
    cumulative name when the factory is given one — written by the same
    :meth:`inc` that fills the ring.
    """

    __slots__ = ("name", "_registry", "_ring", "all_time")

    def __init__(
        self,
        name: str,
        registry: MetricsRegistry,
        window_s: float = DEFAULT_WINDOW_S,
        bucket_s: float = DEFAULT_BUCKET_S,
        all_time: Counter | None = None,
    ) -> None:
        self.name = name
        self._registry = registry
        self._ring = _Ring(window_s, bucket_s, _CountSlot)
        self.all_time = all_time if all_time is not None else Counter(name, registry)

    @property
    def window_s(self) -> float:
        return self._ring.window_s

    def inc(self, n: float = 1.0) -> None:
        """Count ``n`` events at the current clock (no-op while disabled)."""
        if self._registry.enabled or _FORCED:
            self._ring.slot_at(_CLOCK()).total += n
            self.all_time.value += n

    def total(self, window_s: float | None = None) -> float:
        """Events inside the last ``window_s`` seconds (default: full window)."""
        now = _CLOCK()
        return sum(s.total for s in self._ring.live_slots(now, window_s))

    def rate(self, window_s: float | None = None) -> float:
        """Mean events per second over the last ``window_s`` seconds."""
        return self.total(window_s) / self._ring.covered_s(window_s)

    def reset_values(self) -> None:
        self._ring.clear()
        self.all_time.reset_values()

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "windowed_counter",
            "window_s": self._ring.window_s,
            "bucket_s": self._ring.bucket_s,
            "total": self.total(),
            "rate_per_s": self.rate(),
            "cumulative": self.all_time.value,
        }


class WindowedGauge:
    """Sliding-window gauge: last/min/max of the recent observations.

    ``all_time`` holds the last value ever set — a plain
    :class:`~repro.obs.metrics.Gauge`, registered under the series'
    cumulative name when the factory is given one.
    """

    __slots__ = ("name", "_registry", "_ring", "all_time", "cumulative_n")

    def __init__(
        self,
        name: str,
        registry: MetricsRegistry,
        window_s: float = DEFAULT_WINDOW_S,
        bucket_s: float = DEFAULT_BUCKET_S,
        all_time: Gauge | None = None,
    ) -> None:
        self.name = name
        self._registry = registry
        self._ring = _Ring(window_s, bucket_s, _GaugeSlot)
        self.all_time = all_time if all_time is not None else Gauge(name, registry)
        self.cumulative_n = 0

    @property
    def window_s(self) -> float:
        return self._ring.window_s

    def set(self, value: float) -> None:
        """Record the current value (no-op while disabled)."""
        if self._registry.enabled or _FORCED:
            slot = self._ring.slot_at(_CLOCK())
            value = float(value)
            slot.last = value
            slot.n += 1
            if value < slot.min:
                slot.min = value
            if value > slot.max:
                slot.max = value
            self.all_time.value = value
            self.cumulative_n += 1

    def last(self) -> float:
        """Most recent observation ever (NaN before the first set)."""
        return self.all_time.value if self.cumulative_n else float("nan")

    def window_min(self, window_s: float | None = None) -> float:
        values = [
            s.min for s in self._ring.live_slots(_CLOCK(), window_s) if s.n
        ]
        return min(values) if values else float("nan")

    def window_max(self, window_s: float | None = None) -> float:
        values = [
            s.max for s in self._ring.live_slots(_CLOCK(), window_s) if s.n
        ]
        return max(values) if values else float("nan")

    def reset_values(self) -> None:
        self._ring.clear()
        self.all_time.reset_values()
        self.cumulative_n = 0

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "windowed_gauge",
            "window_s": self._ring.window_s,
            "bucket_s": self._ring.bucket_s,
            "last": self.last(),
            "min": self.window_min(),
            "max": self.window_max(),
            "cumulative_n": self.cumulative_n,
        }


class WindowedHistogram:
    """Sliding-window histogram with exact rolling quantiles.

    Samples are retained per bucket until their bucket expires, so
    :meth:`quantile` is the *exact* linear-interpolation quantile
    (``numpy.quantile`` semantics) of everything inside the window — the
    property the live-vs-offline acceptance test pins to 1e-12.

    ``all_time`` is the series' fixed-bucket
    :class:`~repro.obs.metrics.Histogram` (bounds, bucket counts, exact
    ``sum``/``count``/``min``/``max``, per-bucket exemplars), registered
    under the series' cumulative name when the factory is given one and
    written by the same call that fills the ring.
    """

    __slots__ = ("name", "_registry", "_ring", "all_time", "_exemplar")

    def __init__(
        self,
        name: str,
        registry: MetricsRegistry,
        window_s: float = DEFAULT_WINDOW_S,
        bucket_s: float = DEFAULT_BUCKET_S,
        all_time: Histogram | None = None,
    ) -> None:
        self.name = name
        self._registry = registry
        self._ring = _Ring(window_s, bucket_s, _SampleSlot)
        self.all_time = all_time if all_time is not None else Histogram(name, registry)
        #: (absolute bucket index, value, trace_id) of the max-latency
        #: observation carrying a trace id; expires with its bucket.
        self._exemplar: tuple[int, float, str] | None = None

    @property
    def window_s(self) -> float:
        return self._ring.window_s

    def observe(self, value: float) -> None:
        """Record one sample at the current clock (no-op while disabled)."""
        if self._registry.enabled or _FORCED:
            self._ring.slot_at(_CLOCK()).samples.append(float(value))
            self.all_time.add(value)

    def observe_with_exemplar(self, value: float, trace_id: str | None) -> None:
        """Record one sample, retaining ``trace_id`` as the window's
        exemplar when ``value`` is the largest trace-carrying sample
        still inside the window.

        The exemplar is what ``/status`` (and ``repro top``) surface as
        the concrete slow trace behind a burning latency SLO; it expires
        with the ring like any other observation. The all-time view
        keeps its own per-bucket exemplars (the ``/metrics`` bucket
        suffixes). ``trace_id=None`` degrades to :meth:`observe`.
        """
        if self._registry.enabled or _FORCED:
            now = _CLOCK()
            ring = self._ring
            ring.slot_at(now).samples.append(float(value))
            self.all_time.add(value, trace_id)
            if trace_id is not None:
                index = int(now // ring.bucket_s)
                current = self._exemplar
                if (
                    current is None
                    or value >= current[1]
                    or current[0] <= index - ring.n_buckets
                ):
                    self._exemplar = (index, float(value), trace_id)

    def exemplar(self) -> dict[str, Any] | None:
        """The retained max-latency exemplar, or ``None`` when absent or
        expired (its bucket left the window)."""
        current = self._exemplar
        if current is None:
            return None
        index, value, trace_id = current
        if index <= int(_CLOCK() // self._ring.bucket_s) - self._ring.n_buckets:
            return None
        return {"value": value, "trace_id": trace_id}

    def _window_samples(self, window_s: float | None = None) -> list[float]:
        samples: list[float] = []
        for slot in self._ring.live_slots(_CLOCK(), window_s):
            samples.extend(slot.samples)
        return samples

    def count(self, window_s: float | None = None) -> int:
        """Samples inside the last ``window_s`` seconds."""
        return len(self._window_samples(window_s))

    def rate(self, window_s: float | None = None) -> float:
        """Mean samples per second over the last ``window_s`` seconds."""
        return self.count(window_s) / self._ring.covered_s(window_s)

    def mean(self, window_s: float | None = None) -> float:
        """Exact mean of windowed samples (NaN when empty)."""
        samples = self._window_samples(window_s)
        return sum(samples) / len(samples) if samples else float("nan")

    def quantile(self, q: float, window_s: float | None = None) -> float:
        """Exact ``q``-quantile of the windowed samples (NaN when empty).

        Linear interpolation between order statistics — identical to
        ``numpy.quantile(samples, q)`` — computed without numpy so the
        scrape path stays allocation-light.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {q!r}")
        samples = self._window_samples(window_s)
        if not samples:
            return float("nan")
        samples.sort()
        if len(samples) == 1:
            return samples[0]
        position = q * (len(samples) - 1)
        lo = int(position)
        frac = position - lo
        if frac == 0.0:
            return samples[lo]
        return samples[lo] + (samples[lo + 1] - samples[lo]) * frac

    def fraction_above(self, threshold: float, window_s: float | None = None) -> float:
        """Fraction of windowed samples strictly above ``threshold``.

        The latency-SLO error rate: with a p99 bound, up to 1 % of
        samples may sit above the bound before the budget burns.
        Returns 0.0 on an empty window (no traffic, no burn).
        """
        samples = self._window_samples(window_s)
        if not samples:
            return 0.0
        return sum(1 for s in samples if s > threshold) / len(samples)

    def reset_values(self) -> None:
        self._ring.clear()
        self.all_time.reset_values()
        self._exemplar = None

    def snapshot(self) -> dict[str, Any]:
        samples = self._window_samples()
        out: dict[str, Any] = {
            "type": "windowed_histogram",
            "window_s": self._ring.window_s,
            "bucket_s": self._ring.bucket_s,
            "count": len(samples),
            "rate_per_s": len(samples) / self._ring.window_s,
            "cumulative_count": self.all_time.count,
            "cumulative_sum": self.all_time.sum,
        }
        if samples:
            out.update(
                mean=sum(samples) / len(samples),
                p50=self.quantile(0.5),
                p99=self.quantile(0.99),
                min=min(samples),
                max=max(samples),
            )
        exemplar = self.exemplar()
        if exemplar is not None:
            out["exemplar"] = exemplar
        return out


def windowed_counter(
    name: str,
    window_s: float = DEFAULT_WINDOW_S,
    bucket_s: float = DEFAULT_BUCKET_S,
    *,
    total_name: str | None = None,
) -> WindowedCounter:
    """Get-or-create a windowed counter on the process registry.

    With ``total_name`` its all-time count is the registry counter of
    that name, so one :meth:`~WindowedCounter.inc` feeds both the
    windowed and the cumulative series.
    """
    reg = registry()
    all_time = reg.counter(total_name) if total_name is not None else None
    return reg._get_or_create(
        name, WindowedCounter, window_s=window_s, bucket_s=bucket_s, all_time=all_time
    )


def windowed_gauge(
    name: str,
    window_s: float = DEFAULT_WINDOW_S,
    bucket_s: float = DEFAULT_BUCKET_S,
    *,
    total_name: str | None = None,
) -> WindowedGauge:
    """Get-or-create a windowed gauge on the process registry (its last
    value is the registry gauge ``total_name`` when given)."""
    reg = registry()
    all_time = reg.gauge(total_name) if total_name is not None else None
    return reg._get_or_create(
        name, WindowedGauge, window_s=window_s, bucket_s=bucket_s, all_time=all_time
    )


def windowed_histogram(
    name: str,
    window_s: float = DEFAULT_WINDOW_S,
    bucket_s: float = DEFAULT_BUCKET_S,
    *,
    total_name: str | None = None,
    buckets: tuple[float, ...] | None = None,
) -> WindowedHistogram:
    """Get-or-create a windowed histogram on the process registry (its
    all-time view is the registry histogram ``total_name``, with
    ``buckets``, when given)."""
    reg = registry()
    all_time = (
        reg.histogram(total_name, buckets=buckets) if total_name is not None else None
    )
    return reg._get_or_create(
        name, WindowedHistogram, window_s=window_s, bucket_s=bucket_s, all_time=all_time
    )
