"""Nestable tracing spans aggregated into a per-phase profile.

:func:`span` is a context manager, :func:`traced` the decorator form.
Entering a span pushes its name onto a per-thread stack; the aggregation
key is the slash-joined path of the active stack, so the same code
records as ``propagate`` when called directly and as ``sweep/propagate``
when a caller holds an enclosing ``span("sweep")`` — phase attribution
follows the call structure with no explicit threading of labels.

Spans obey the same process-wide enabled flag as the metrics registry:
disabled, with no recorder active, :func:`span` hands out one shared
no-op context manager. Wall time is always recorded when enabled; CPU
time (``time.process_time``) is opt-in per span. Exceptions propagate
and still record the span — the timing of a failed phase is exactly
what a post-mortem needs.

:class:`Stopwatch` is the *local*, always-on variant: an explicitly
constructed instrument whose laps accumulate regardless of the global
flag, for benchmarks that own their timing.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, TypeVar

from repro.obs import events as _events
from repro.obs.metrics import registry

__all__ = ["Profile", "SpanStats", "Stopwatch", "profile", "span", "traced"]

F = TypeVar("F", bound=Callable[..., Any])


@dataclass
class SpanStats:
    """Aggregate of every execution of one span path.

    Attributes:
        path: slash-joined nesting path (e.g. ``"sweep/serve"``).
        count: number of completed executions.
        total_s: accumulated wall-clock seconds.
        max_s: slowest single execution.
        total_cpu_s: accumulated CPU seconds (only for ``cpu=True`` spans).
    """

    path: str
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    total_cpu_s: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "count": self.count,
            "total_s": self.total_s,
            "max_s": self.max_s,
        }
        if self.total_cpu_s:
            out["total_cpu_s"] = self.total_cpu_s
        return out


class Profile:
    """Span aggregates keyed by path, in first-entered order."""

    def __init__(self) -> None:
        self._stats: dict[str, SpanStats] = {}

    def record(self, path: str, elapsed_s: float, cpu_s: float = 0.0) -> None:
        """Fold one completed span execution into the aggregate."""
        stats = self._stats.get(path)
        if stats is None:
            stats = self._stats[path] = SpanStats(path)
        stats.count += 1
        stats.total_s += elapsed_s
        stats.total_cpu_s += cpu_s
        if elapsed_s > stats.max_s:
            stats.max_s = elapsed_s

    def stats(self) -> dict[str, SpanStats]:
        """Aggregates by path (copy of the mapping, live stats objects)."""
        return dict(self._stats)

    def as_dict(self) -> dict[str, dict[str, Any]]:
        """JSON-ready form, for the run manifest."""
        return {path: s.as_dict() for path, s in self._stats.items()}

    def merge(self, snapshot: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold another profile's :meth:`as_dict` output into this one."""
        for path, data in snapshot.items():
            stats = self._stats.get(path)
            if stats is None:
                stats = self._stats[path] = SpanStats(path)
            stats.count += int(data["count"])
            stats.total_s += float(data["total_s"])
            stats.total_cpu_s += float(data.get("total_cpu_s", 0.0))
            stats.max_s = max(stats.max_s, float(data["max_s"]))

    def reset(self) -> None:
        """Drop every aggregate."""
        self._stats.clear()


_PROFILE = Profile()
_STACK = threading.local()


def profile() -> Profile:
    """The process-wide span profile."""
    return _PROFILE


def _stack() -> list[str]:
    stack = getattr(_STACK, "names", None)
    if stack is None:
        stack = _STACK.names = []
    return stack


class _Span:
    """One span activation. Re-usable sequentially, not concurrently.

    Besides feeding the aggregate profile, an active timeline recorder
    (:mod:`repro.obs.events`) receives one raw begin/end event per
    activation, parented through the events context stack. With both
    planes off the cost stays a flag check plus one ``None`` check.
    """

    __slots__ = ("name", "cpu", "_path", "_t0", "_c0", "_ev", "_prof")

    def __init__(self, name: str, cpu: bool) -> None:
        self.name = name
        self.cpu = cpu
        self._t0: float | None = None

    def __enter__(self) -> "_Span":
        rec = _events._ACTIVE
        if not registry().enabled:
            if rec is None:
                self._t0 = None
                return self
            self._prof = False
        else:
            self._prof = True
        stack = _stack()
        stack.append(self.name)
        self._path = "/".join(stack)
        self._ev = rec.span_begin(self.name, self._path) if rec is not None else None
        self._c0 = time.process_time() if self.cpu else 0.0
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        if self._t0 is None:
            return
        elapsed = time.perf_counter() - self._t0
        cpu_s = (time.process_time() - self._c0) if self.cpu else 0.0
        self._t0 = None
        stack = _stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        ev = self._ev
        if ev is not None:
            self._ev = None
            ev.end()
        if self._prof:
            _PROFILE.record(self._path, elapsed, cpu_s)


#: What :func:`span` returns with both planes off: one shared no-op.
_NULL_SPAN = contextlib.nullcontext()


def span(name: str, *, cpu: bool = False) -> "_Span | contextlib.nullcontext":
    """Context manager timing one phase under the current nesting path.

    With the registry disabled and no recorder active it returns a
    shared no-op span, so a disabled span allocates nothing.

    Args:
        name: phase label; the recorded key is the slash-joined path of
            all enclosing spans plus ``name``.
        cpu: additionally record ``time.process_time`` deltas.
    """
    if _events._ACTIVE is None and not registry().enabled:
        return _NULL_SPAN
    return _Span(name, cpu)


def traced(name: str | None = None, *, cpu: bool = False) -> Callable[[F], F]:
    """Decorator form of :func:`span` (defaults to the function's name)."""

    def decorate(fn: F) -> F:
        label = name if name is not None else fn.__name__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(label, cpu=cpu):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


# --- the local, always-on stopwatch ------------------------------------------


@dataclass
class Stopwatch:
    """Accumulating stopwatch with named laps (always on, no global state).

    Example:
        >>> sw = Stopwatch()
        >>> with sw.lap("propagate"):
        ...     pass
        >>> sw.totals()["propagate"] >= 0.0
        True
    """

    _totals: dict[str, float] = field(default_factory=dict)
    _counts: dict[str, int] = field(default_factory=dict)

    def lap(self, name: str) -> "_Lap":
        """Context manager that adds its elapsed time to lap ``name``."""
        return _Lap(self, name)

    def record(self, name: str, elapsed: float) -> None:
        """Manually add ``elapsed`` seconds to lap ``name``."""
        self._totals[name] = self._totals.get(name, 0.0) + elapsed
        self._counts[name] = self._counts.get(name, 0) + 1

    def totals(self) -> dict[str, float]:
        """Total elapsed seconds per lap name."""
        return dict(self._totals)

    def counts(self) -> dict[str, int]:
        """Number of recorded laps per name."""
        return dict(self._counts)

    def summary(self) -> str:
        """Human-readable multi-line summary, slowest lap first."""
        lines = [
            f"{name:<24s} {self._totals[name]:9.4f} s  x{self._counts[name]}"
            for name in sorted(self._totals, key=self._totals.get, reverse=True)
        ]
        return "\n".join(lines)


class _Lap:
    def __init__(self, watch: Stopwatch, name: str) -> None:
        self._watch = watch
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Lap":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._watch.record(self._name, time.perf_counter() - self._start)
