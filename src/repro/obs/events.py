"""The one span sink: the span profile, span events and flight records.

:func:`span` (re-exported as ``obs.span``) enters and exits through the
active :class:`EventRecorder` only; with none active (off by default —
the span and serving hot paths pay one ``None`` check otherwise) it is a
shared no-op. Every activation pushes one ``(trace, span, path)`` frame
on a thread-local context stack, so the same code aggregates as
``propagate`` when called directly and as ``sweep/propagate`` under an
enclosing ``span("sweep")``. On exit the recorder folds the wall time
into its per-path aggregate (count / total / max — the run's span
profile, counted for every activation whether or not its trace is
sampled). Telemetry without recording (``obs.enable()`` with no
``--trace``) runs an *aggregate-only* recorder that stops there. A
recording recorder also emits one raw event per span carrying a
``trace`` / ``span`` / ``parent`` triple, monotonic microsecond
timestamps and attributes, so one stream answers both "where did the
time go?" and "why was this request denied?".

Event records are JSON dicts with the fields::

    {"ph": "X", "name": "serve", "path": "serve", "ts": 123, "dur": 45,
     "span": 3, "shard": 0, "trace": "req-17", "parent": 1,
     "attrs": {...}}

``ph`` is always ``"X"`` (a *complete* span: begin timestamp plus
duration — begin/end pairs are materialised on export); ``ts``/``dur``
are integer microseconds on the recording process' monotonic clock;
``shard`` identifies the recording process (0 = the parent, workers get
``first_index + 1`` via :func:`shard_config`). Records without a
``trace`` field are *process-scope* (cursor advances, budget fills,
sweep phases, coverage samples): they describe one process' own
timeline and legitimately vary with worker count, while trace-anchored
records are worker-count invariant for a fixed seed.

**Flight records.** A request's flight record is the attrs of its root
``request`` event: endpoints and their LANs, ``t_s`` (and the sweep's
``t_index``), ``served``, then ``path``/``hop_etas``/``path_eta``/
``fidelity`` when served, or one canonical ``cause`` with ``candidates``
(at most :data:`MAX_CANDIDATES`) and ``candidate_counts`` when denied.
Under the streaming server the root is the open ``req-<id>`` span and
the simulator merges its detail into it (:meth:`EventRecorder.
record_request`); with no trace scope the request becomes its own
zero-duration root with trace id ``"<src>|<dst>|<key!r>"``. Sweeps add
one process-scope ``coverage`` event per ephemeris sample. Ingest checks
every flight record (served XOR one canonical cause) and keeps bounded
analytics — cause counts per LAN pair, satellite utilization, the
coverage mask, per-step accounting — next to per-path span counts and
the N slowest traces, all embedded in the run manifest via
:meth:`EventRecorder.summary`.

Trace context is explicit at the roots and implicit below them: the
streaming front end opens a root span per request via
:meth:`EventRecorder.trace_begin` (a cross-coroutine handle — the root
covers submit -> outcome, spanning queue residency), then wraps the
engine call in ``handle.scope()`` so every nested ``obs.span`` parents
itself correctly through a thread-local context stack. Sampling is
deterministic per trace (CRC-32 of ``f"{seed}|{trace_id}"``), and an
unsampled root suppresses its whole subtree. Process-scope events are
never sampled.

Memory is bounded: size-rotated JSONL (``t.jsonl``, ``t.jsonl.1``, ...)
or a fixed ring, and analytics bounded by the workload's shape, never
its length.

Workers never write through an inherited recorder: the pool protocol
(:func:`shard_config` / :func:`start_shard` / :func:`finish_shard` /
:func:`absorb_shard`) gives each task its own shard recorder, and each
shard payload carries the shard's span aggregate (added into the
parent's, so a pooled run profiles like an in-process one) and the
worker's paired clock origins
``(wall_origin_unix_s, mono_origin_us)`` so the parent maps every
absorbed timestamp onto its own monotonic timeline with one constant
per-shard offset. A constant shift preserves intra-trace causality
(every span of one trace is recorded in one process), so merged
timelines stay causally ordered regardless of worker count.
"""

from __future__ import annotations

import heapq
import json
import numbers
import time
import threading
import zlib
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import ValidationError
from repro.obs.trace import CAUSES

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "MAX_CANDIDATES",
    "EventConfig",
    "EventRecorder",
    "absorb_shard",
    "active",
    "attach",
    "detach",
    "finish_shard",
    "read_events",
    "recording",
    "render_tree",
    "reset",
    "reset_for_worker",
    "shard_config",
    "shard_payload",
    "shard_recorder",
    "span",
    "span_profile",
    "start",
    "start_shard",
    "stop",
    "to_chrome_trace",
]

#: Bump when the event layout changes incompatibly.
EVENT_SCHEMA_VERSION = 1

#: Per-record cap on detailed candidate-uplink entries in a denial's
#: flight record (``candidate_counts`` stay exact).
MAX_CANDIDATES = 12

#: Sentinel trace id for a suppressed (unsampled) context scope.
_DROP = object()

#: Span names recorded process-scope even inside a trace scope. These
#: are cache/memoization fills: the work is triggered by whichever
#: request happens to arrive first and benefits every later one, so
#: anchoring it to the triggering trace would make trace contents depend
#: on request order and worker count — breaking the fixed-seed
#: determinism contract (same trace tuples for any ``n_workers``).
PROCESS_SCOPE_SPANS = frozenset({"route", "budget", "propagate"})


@dataclass(frozen=True)
class EventConfig:
    """Recorder configuration.

    Attributes:
        path: JSONL output file; ``None`` keeps events in a ring buffer.
        sample_rate: fraction of *traces* to record, in [0, 1]. Sampling
            is per trace id, never per event — a sampled trace is always
            complete, an unsampled one contributes nothing.
        max_records_per_file: rotation threshold — a full file closes
            and ``<path>.1``, ``<path>.2``, ... continue the stream.
        ring_size: ring-buffer capacity when ``path`` is ``None``.
        seed: sampling salt, hashed with the trace id.
        shard: recording-process id stamped on every event (0 = parent).
        n_slowest: how many complete traces to retain as waterfalls in
            :meth:`EventRecorder.summary`.
    """

    path: Path | None = None
    sample_rate: float = 1.0
    max_records_per_file: int = 500_000
    ring_size: int = 65_536
    seed: int = 0
    shard: int = 0
    n_slowest: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValidationError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}"
            )
        for name, low in (
            ("max_records_per_file", 1),
            ("ring_size", 1),
            ("seed", None),
            ("shard", 0),
            ("n_slowest", 0),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            if low is not None and value < low:
                raise ValidationError(f"{name} must be >= {low}, got {value}")


def now_us() -> int:
    """Current process-monotonic time in integer microseconds."""
    return int(time.perf_counter() * 1e6)


_CTX = threading.local()


def _ctx_stack() -> list[tuple[Any, int, str]]:
    """The thread's context stack of ``(trace_id, span_id, path)`` frames.

    ``trace_id`` is ``None`` for process scope and :data:`_DROP` under an
    unsampled trace; ``path`` is the slash-joined span path below which
    the next span nests.
    """
    stack = getattr(_CTX, "stack", None)
    if stack is None:
        stack = _CTX.stack = []
    return stack


class _Scope:
    """Pushes one trace context frame for a ``with`` body.

    The frame keeps the enclosing span path, so spans opened under a
    request root nest exactly as they would without it.
    """

    __slots__ = ("_ids", "_frame")

    def __init__(self, trace_id: Any, span_id: int) -> None:
        self._ids = (trace_id, span_id)

    def __enter__(self) -> "_Scope":
        stack = _ctx_stack()
        self._frame = (*self._ids, stack[-1][2] if stack else "")
        stack.append(self._frame)
        return self

    def __exit__(self, *exc: object) -> None:
        stack = _ctx_stack()
        if stack and stack[-1] is self._frame:
            stack.pop()


class _Span:
    """One :func:`span` activation. Re-usable sequentially, not concurrently.

    Entering pushes one context frame carrying the span's path; exiting
    pops it, folds the wall time into the recorder's per-path aggregate
    (every activation, sampled or not) and, when the span belongs to a
    recorded trace or to process scope of a recorder that keeps
    records, writes one event.
    """

    __slots__ = ("rec", "name", "_frame", "_parent", "_t0")

    def __init__(self, rec: "EventRecorder", name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> "_Span":
        name = self.name
        stack = _ctx_stack()
        if stack:
            trace_id, parent_id, prefix = stack[-1]
            path = f"{prefix}/{name}" if prefix else name
            if name in PROCESS_SCOPE_SPANS:
                trace_id = parent_id = None
        else:
            trace_id = parent_id = None
            path = name
        rec = self.rec
        span_id = (
            rec._next_span_id(trace_id)
            if rec.keeps_records and trace_id is not _DROP
            else 0
        )
        self._parent = parent_id
        self._frame = (trace_id, span_id, path)
        stack.append(self._frame)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        t1 = time.perf_counter()
        elapsed = t1 - self._t0
        frame = self._frame
        stack = _ctx_stack()
        if stack and stack[-1] is frame:
            stack.pop()
        trace_id, span_id, path = frame
        stats = self.rec.span_stats.setdefault(path, [0, 0.0, 0.0])
        stats[0] += 1
        stats[1] += elapsed
        if elapsed > stats[2]:
            stats[2] = elapsed
        if span_id:
            self.rec._emit(
                self.name, path, span_id, trace_id, self._parent,
                int(self._t0 * 1e6), int(t1 * 1e6), None,
            )


#: What :func:`span` returns with no recorder active: one shared no-op.
_NULL_SPAN = nullcontext()


def span(name: str) -> "_Span | nullcontext":
    """Context manager timing one phase under the current nesting path.

    The recorded key is the slash-joined path of every enclosing span
    plus ``name``, so the same code aggregates as ``propagate`` when
    called directly and as ``sweep/propagate`` under ``span("sweep")``.
    With no recorder active (telemetry and recording both off) it
    returns a shared no-op, so a disabled span allocates nothing.
    Exceptions propagate and still record the span.
    """
    rec = _ACTIVE
    if rec is None:
        return _NULL_SPAN
    return _Span(rec, name)


class SpanHandle:
    """One open trace root. ``end()`` writes the record; re-use is an error."""

    __slots__ = ("rec", "trace_id", "span_id", "name", "t0_us", "attrs", "sampled")

    def __init__(
        self,
        rec: "EventRecorder",
        trace_id: str,
        span_id: int,
        name: str,
        t0_us: int,
        attrs: dict[str, Any] | None,
        sampled: bool,
    ) -> None:
        self.rec = rec
        self.trace_id = trace_id
        self.span_id = span_id
        self.name = name
        self.t0_us = t0_us
        self.attrs = attrs
        self.sampled = sampled

    def scope(self) -> _Scope:
        """Context frame making this span the parent of nested spans.

        An unsampled handle pushes a *suppressing* frame: spans begun
        under it write no events (the whole subtree follows the root's
        sampling decision), though they still count in the aggregate.
        """
        if not self.sampled:
            return _Scope(_DROP, 0)
        return _Scope(self.trace_id, self.span_id)

    def child_complete(
        self,
        name: str,
        *,
        begin_us: int,
        end_us: int | None = None,
        attrs: Mapping[str, Any] | None = None,
    ) -> None:
        """Emit one already-finished child span (e.g. queue residency,
        whose begin predates the handle holder regaining control)."""
        if not self.sampled:
            return
        self.rec.complete(
            name,
            trace_id=self.trace_id,
            parent_id=self.span_id,
            begin_us=begin_us,
            end_us=end_us if end_us is not None else now_us(),
            attrs=attrs,
        )

    def end(
        self, attrs: Mapping[str, Any] | None = None, ts_us: int | None = None
    ) -> None:
        """Close the span and write its record (merging ``attrs`` in)."""
        if not self.sampled:
            return
        merged = dict(self.attrs) if self.attrs else {}
        if attrs:
            merged.update(attrs)
        self.rec._emit(
            self.name, self.name, self.span_id, self.trace_id, None, self.t0_us,
            ts_us if ts_us is not None else now_us(), merged,
        )


class EventRecorder:
    """Aggregates every span activation per path; streams span events
    and keeps bounded incremental analytics.

    ``span_stats`` maps each span path to ``[count, total_s, max_s]``
    over every activation, sampled or not — the run's span profile (the
    manifest's ``"profile"``, the ``--profile`` table). An
    *aggregate-only* recorder (``keep_records=False``, what
    ``obs.enable()`` activates when nothing is recording) keeps just
    that: it samples no trace, writes no event and builds no flight
    record.

    Not thread-safe by design: each recorder belongs to one recording
    context (the process' main loop, or one pool worker's shard).
    """

    def __init__(
        self,
        config: EventConfig | None = None,
        *,
        keep_records: bool = True,
        **kwargs: Any,
    ) -> None:
        self.config = config if config is not None else EventConfig(**kwargs)
        self.keeps_records = keep_records
        #: span path -> [count, total_s, max_s], in first-entered order
        self.span_stats: dict[str, list] = {}
        # Paired clock origins, captured together: the shard-merge
        # protocol uses them to compute one constant offset per shard.
        self.wall_origin_unix_s = time.time()
        self.mono_origin_us = now_us()
        self._fh = None
        self._part = 0
        self._records_in_part = 0
        self._paths: list[Path] = []
        self._ring: deque[dict[str, Any]] | None = None
        if self.config.path is None and keep_records:
            self._ring = deque(maxlen=self.config.ring_size)
        # --- bounded incremental analytics ---------------------------------
        self.n_events = 0
        self.n_traces = 0
        self.span_counts: dict[str, int] = {}
        #: span-id allocators: per open trace, plus a process-scope sequence
        self._trace_seq: dict[str, int] = {}
        self._seq = 0
        #: records of traces whose root has not ended yet (bounded by
        #: in-flight requests; released — or retained as a waterfall —
        #: when the root record arrives)
        self._open: dict[str, list[dict[str, Any]]] = {}
        #: open root handles by trace id (flight detail merges into them)
        self._roots: dict[str, SpanHandle] = {}
        #: min-heap of the n_slowest completed traces, keyed by duration
        self._slowest: list[tuple[int, str, dict[str, Any]]] = []
        # --- flight-record analytics ---------------------------------------
        self.n_requests = 0
        self.n_served = 0
        self.n_cancelled = 0
        self.cause_counts: dict[str, int] = {c: 0 for c in CAUSES}
        #: "LAN-A<->LAN-B" -> {"total", "served", causes...}
        self.pair_stats: dict[str, dict[str, int]] = {}
        #: hop platform name -> served requests carried
        self.satellite_counts: dict[str, int] = {}
        self.fidelity_sum = 0.0
        self.fidelity_count = 0
        #: evaluation-step served accounting: key -> [served, total]
        self.step_counts: dict[str, list[int]] = {}
        # coverage mask (one entry per coverage event, time order)
        self._cov_times: list[float] = []
        self._cov_mask: list[bool] = []
        self._cov_horizon_s: float | None = None

    # --- sampling -----------------------------------------------------------

    def sampled(self, trace_id: str) -> bool:
        """Deterministic per-trace sampling decision (always ``False``
        on an aggregate-only recorder)."""
        if not self.keeps_records:
            return False
        rate = self.config.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        token = f"{self.config.seed}|{trace_id}".encode()
        return zlib.crc32(token) / 2**32 < rate

    # --- span lifecycle -----------------------------------------------------

    def _next_span_id(self, trace_id: str | None) -> int:
        if trace_id is None:
            self._seq += 1
            return self._seq
        nxt = self._trace_seq.get(trace_id, 0) + 1
        self._trace_seq[trace_id] = nxt
        return nxt

    def trace_begin(
        self, trace_id: str, name: str, attrs: Mapping[str, Any] | None = None
    ) -> SpanHandle:
        """Open the root span of trace ``trace_id``.

        The handle is cross-coroutine: it does not touch the context
        stack (use :meth:`SpanHandle.scope` around synchronous work that
        should parent under it). An unsampled trace returns a handle
        whose ``end`` writes nothing and whose ``scope`` suppresses the
        subtree.
        """
        if not self.sampled(trace_id):
            return SpanHandle(self, trace_id, 0, name, 0, None, False)
        span_id = self._next_span_id(trace_id)
        self._open.setdefault(trace_id, [])
        handle = SpanHandle(
            self, trace_id, span_id, name, now_us(), dict(attrs) if attrs else None, True
        )
        self._roots[trace_id] = handle
        return handle

    def complete(
        self,
        name: str,
        *,
        trace_id: str | None = None,
        parent_id: int | None = None,
        begin_us: int,
        end_us: int,
        attrs: Mapping[str, Any] | None = None,
    ) -> None:
        """Emit one already-finished span with explicit timestamps."""
        if self.keeps_records:
            self._emit(
                name, name, self._next_span_id(trace_id), trace_id, parent_id,
                int(begin_us), int(end_us), dict(attrs) if attrs else None,
            )

    def _emit(
        self,
        name: str,
        path: str,
        span_id: int,
        trace_id: str | None,
        parent_id: int | None,
        begin_us: int,
        end_us: int,
        attrs: dict[str, Any] | None,
    ) -> None:
        """Build one event record and ingest it."""
        record: dict[str, Any] = {
            "ph": "X",
            "name": name,
            "path": path,
            "ts": begin_us,
            "dur": max(0, end_us - begin_us),
            "span": span_id,
            "shard": self.config.shard,
        }
        if trace_id is not None:
            record["trace"] = trace_id
        if parent_id is not None:
            record["parent"] = parent_id
        if attrs:
            record["attrs"] = attrs
        self._ingest(record)

    # --- span profile -------------------------------------------------------

    def span_profile(self) -> dict[str, dict[str, float]]:
        """The span aggregate, JSON-ready: path -> count/total_s/max_s."""
        return {
            path: {"count": count, "total_s": total, "max_s": peak}
            for path, (count, total, peak) in self.span_stats.items()
        }

    def merge_profile(self, profile: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold another recorder's :meth:`span_profile` into this one."""
        for path, data in profile.items():
            stats = self.span_stats.setdefault(path, [0, 0.0, 0.0])
            stats[0] += int(data["count"])
            stats[1] += float(data["total_s"])
            stats[2] = max(stats[2], float(data["max_s"]))

    # --- flight records -----------------------------------------------------

    def request_scope(self, trace_id: str) -> str | None:
        """The trace one request's flight record joins, or ``None``.

        Under an open trace scope (the server's ``req-<id>`` root) the
        record joins that trace — or nothing, when the scope is
        suppressed. With no trace scope the request is its own trace
        ``trace_id``, recorded when sampled. Callers ask before building
        the record, so an unrecorded request costs no attribution.
        """
        stack = _ctx_stack()
        if stack:
            scope = stack[-1][0]
            if scope is _DROP:
                return None
            if scope is not None:
                return scope
        return trace_id if self.sampled(trace_id) else None

    def record_request(self, trace_id: str, attrs: Mapping[str, Any]) -> None:
        """Attach one request's flight record to trace ``trace_id``.

        An open root (the server's) takes ``attrs`` into its own, written
        — and checked — when its owner ends it; otherwise a zero-duration
        ``request`` root carrying them is emitted now.
        """
        root = self._roots.get(trace_id)
        if root is not None:
            if root.attrs is None:
                root.attrs = {}
            root.attrs.update(attrs)
            return
        ts = now_us()
        self.complete("request", trace_id=trace_id, begin_us=ts, end_us=ts, attrs=attrs)

    def record_coverage(
        self, *, t_s: float, t_index: int, connected: bool, horizon_s: float
    ) -> None:
        """Emit one process-scope coverage sample (never sampled out)."""
        ts = now_us()
        self.complete(
            "coverage",
            begin_us=ts,
            end_us=ts,
            attrs={
                "t_s": float(t_s),
                "t_index": int(t_index),
                "connected": bool(connected),
                "horizon_s": float(horizon_s),
            },
        )

    # --- ingest / analytics -------------------------------------------------

    def absorb(self, record: Mapping[str, Any]) -> None:
        """Fold an already-recorded event (e.g. from a shard file) in."""
        self._ingest(dict(record))

    def _ingest(self, record: dict[str, Any]) -> None:
        trace_id = record.get("trace")
        is_root = trace_id is not None and record.get("parent") is None
        if is_root:
            attrs = record.get("attrs")
            if attrs and "served" in attrs and record["name"] == "request":
                self._note_request(trace_id, attrs)
        elif trace_id is None and record["name"] == "coverage":
            attrs = record.get("attrs")
            if attrs and "connected" in attrs:
                self._cov_times.append(float(attrs["t_s"]))
                self._cov_mask.append(bool(attrs["connected"]))
                self._cov_horizon_s = float(attrs["horizon_s"])
        path = record.get("path") or record.get("name") or "?"
        self.span_counts[path] = self.span_counts.get(path, 0) + 1
        if trace_id is not None:
            buf = self._open.setdefault(trace_id, [])
            buf.append(record)
            if is_root:
                # The root closed: the trace is complete.
                del self._open[trace_id]
                self._trace_seq.pop(trace_id, None)
                self._roots.pop(trace_id, None)
                self.n_traces += 1
                self._note_slowest(trace_id, record, buf)
        self._write(record)

    def _note_request(self, trace_id: str, attrs: Mapping[str, Any]) -> None:
        """Check one flight record (served XOR canonical cause) and count it."""
        if attrs.get("cancelled"):
            self.n_cancelled += 1
            return
        served = bool(attrs["served"])
        cause = attrs.get("cause")
        if served and cause is not None:
            raise ValidationError(f"served request {trace_id} must not carry a cause")
        if not served and cause not in self.cause_counts:
            raise ValidationError(
                f"denied request {trace_id} needs a canonical denial cause, "
                f"got {cause!r}"
            )
        self.n_requests += 1
        lans = sorted((attrs.get("source_lan") or "?", attrs.get("destination_lan") or "?"))
        pair = self.pair_stats.setdefault("<->".join(lans), {"total": 0, "served": 0})
        pair["total"] += 1
        if served:
            self.n_served += 1
            pair["served"] += 1
            fidelity = attrs.get("fidelity")
            if fidelity is not None:
                self.fidelity_sum += float(fidelity)
                self.fidelity_count += 1
            for name in (attrs.get("path") or [])[1:-1]:
                self.satellite_counts[name] = self.satellite_counts.get(name, 0) + 1
        else:
            self.cause_counts[cause] += 1
            pair[cause] = pair.get(cause, 0) + 1
        step = self.step_counts.setdefault(
            str(attrs.get("t_index", attrs.get("t_s"))), [0, 0]
        )
        step[0] += int(served)
        step[1] += 1

    def _note_slowest(
        self, trace_id: str, root: dict[str, Any], records: list[dict[str, Any]]
    ) -> None:
        n = self.config.n_slowest
        if n <= 0:
            return
        dur = int(root.get("dur", 0))
        if len(self._slowest) >= n and dur <= self._slowest[0][0]:
            return
        t0 = int(root["ts"])
        spans = [
            {
                "path": r.get("path") or r.get("name"),
                "off_us": int(r["ts"]) - t0,
                "dur_us": int(r.get("dur", 0)),
                **({"attrs": r["attrs"]} if r.get("attrs") else {}),
            }
            for r in records
            if r is not root
        ]
        spans.sort(key=lambda s: s["off_us"])
        entry = {
            "trace": trace_id,
            "dur_us": dur,
            "shard": root.get("shard", 0),
            **({"attrs": root["attrs"]} if root.get("attrs") else {}),
            "spans": spans,
        }
        item = (dur, trace_id, entry)
        if len(self._slowest) < n:
            heapq.heappush(self._slowest, item)
        else:
            heapq.heappushpop(self._slowest, item)

    # --- output -------------------------------------------------------------

    def _write(self, record: dict[str, Any]) -> None:
        self.n_events += 1
        if self._ring is not None:
            self._ring.append(record)
            return
        if self._fh is None:
            self._open_part()
        elif self._records_in_part >= self.config.max_records_per_file:
            self._fh.close()
            self._part += 1
            self._open_part()
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._records_in_part += 1

    def _open_part(self) -> None:
        assert self.config.path is not None
        base = Path(self.config.path)
        path = base if self._part == 0 else base.with_name(f"{base.name}.{self._part}")
        path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = path.open("w")
        self._records_in_part = 0
        self._paths.append(path)

    @property
    def paths(self) -> list[Path]:
        """Files written so far (rotation order)."""
        return list(self._paths)

    def records(self) -> list[dict[str, Any]]:
        """In-memory events (ring mode only; newest ``ring_size``)."""
        return list(self._ring) if self._ring is not None else []

    def flush(self) -> None:
        """Flush the current file, if any."""
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        """Close the output stream (analytics stay readable)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # --- summary ------------------------------------------------------------

    def coverage_summary(self) -> dict[str, Any] | None:
        """Outage timeline and coverage percentage from the coverage events.

        Uses the same interval conversion as
        :func:`repro.core.coverage.coverage_from_mask`, so the derived
        percentage is bit-identical to the sweep's own number.
        """
        if not self._cov_times:
            return None
        import numpy as np

        from repro.utils.intervals import intervals_from_mask

        times = np.asarray(self._cov_times, dtype=float)
        mask = np.asarray(self._cov_mask, dtype=bool)
        connected = intervals_from_mask(times, mask)
        outages = intervals_from_mask(times, ~mask)
        covered_s = sum(iv.duration for iv in connected)
        horizon = self._cov_horizon_s
        return {
            "samples": int(times.size),
            "connected_samples": int(mask.sum()),
            "covered_s": float(covered_s),
            "horizon_s": horizon,
            "percentage": 100.0 * covered_s / horizon if horizon else float("nan"),
            "outages": [[iv.start, iv.end] for iv in outages],
            "longest_outage_s": max((iv.duration for iv in outages), default=0.0),
        }

    def summary(self) -> dict[str, Any]:
        """The bounded analytics digest embedded into run manifests."""
        self.flush()
        out: dict[str, Any] = {
            "schema": EVENT_SCHEMA_VERSION,
            "sample_rate": self.config.sample_rate,
            "events": self.n_events,
            "files": [str(p) for p in self._paths],
            "requests": {
                "total": self.n_requests,
                "served": self.n_served,
                "denied": self.n_requests - self.n_served,
                "cancelled": self.n_cancelled,
                "served_pct": (
                    100.0 * self.n_served / self.n_requests if self.n_requests else None
                ),
                "mean_fidelity": (
                    self.fidelity_sum / self.fidelity_count
                    if self.fidelity_count
                    else None
                ),
                "causes": dict(self.cause_counts),
                "by_lan_pair": {k: dict(v) for k, v in sorted(self.pair_stats.items())},
            },
            "satellites": {
                "utilization": dict(
                    sorted(self.satellite_counts.items(), key=lambda kv: -kv[1])
                ),
            },
            "traces": self.n_traces,
            "open_traces": len(self._open),
            "spans": dict(sorted(self.span_counts.items())),
            "slowest": [
                entry
                for _, _, entry in sorted(
                    self._slowest, key=lambda it: (-it[0], it[1])
                )
            ],
        }
        coverage = self.coverage_summary()
        if coverage is not None:
            out["coverage"] = coverage
        if self.step_counts:
            steps = self.step_counts.values()
            worst = min(steps, key=lambda sc: sc[0] / sc[1])
            out["steps"] = {
                "evaluated": len(self.step_counts),
                "fully_served": sum(1 for s, t in steps if s == t),
                "fully_denied": sum(1 for s, _ in steps if s == 0),
                "worst_served_fraction": worst[0] / worst[1],
            }
        return out


# --- process-wide active recorder ---------------------------------------------

_ACTIVE: EventRecorder | None = None


def active() -> EventRecorder | None:
    """The process' active recorder, or ``None`` (telemetry and
    recording both off)."""
    return _ACTIVE


def span_profile() -> dict[str, dict[str, float]]:
    """The active recorder's span aggregate (``{}`` with none active)."""
    return _ACTIVE.span_profile() if _ACTIVE is not None else {}


def start(
    path: str | Path | None = None, *, config: EventConfig | None = None, **kwargs: Any
) -> EventRecorder:
    """Activate a recording recorder for this process (replacing and
    closing any previous one, an aggregate-only one included)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
    if config is None:
        config = EventConfig(path=Path(path) if path is not None else None, **kwargs)
    _ACTIVE = EventRecorder(config)
    return _ACTIVE


def stop() -> dict[str, Any] | None:
    """Deactivate and close the recorder; returns its final summary."""
    global _ACTIVE
    if _ACTIVE is None:
        return None
    summary = _ACTIVE.summary()
    _ACTIVE.close()
    _ACTIVE = None
    return summary


def reset() -> None:
    """Close and drop any active recorder (``obs.reset`` calls this so
    back-to-back runs in one process never leak events)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
        _ACTIVE = None


def detach() -> EventRecorder | None:
    """Remove and return the active recorder *without* closing it.

    For run drivers that must zero the aggregate planes mid-setup
    (``obs.reset()``) while keeping the run-scoped recorder alive; pair
    with :func:`attach`.
    """
    global _ACTIVE
    rec = _ACTIVE
    _ACTIVE = None
    return rec


def attach(rec: EventRecorder | None) -> None:
    """Re-install a recorder returned by :func:`detach`."""
    global _ACTIVE
    _ACTIVE = rec


def reset_for_worker() -> None:
    """Detach any recorder inherited across ``fork`` without closing it.

    A forked child shares the parent's file descriptor; writing through
    it would interleave with the parent's stream. Pool worker tasks call
    this first, then opt into their own shard recorder.
    """
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def recording(
    path: str | Path | None = None, **kwargs: Any
) -> Iterator[EventRecorder]:
    """``with events.recording(...) as rec:`` — scoped start/stop."""
    rec = start(path, **kwargs)
    try:
        yield rec
    finally:
        stop()


# --- sharded (process-pool) recording -------------------------------------------


def shard_config(first_index: int) -> dict[str, Any] | None:
    """Picklable shard-recorder description for one worker task.

    ``None`` when no recorder is active. An aggregate-only parent gets
    an aggregate-only shard. With a file-backed parent the shard writes
    ``<parent>.shard-<first_index>``; a ring-backed parent makes the
    shard ring-backed too (its records travel back in the result). The
    shard id stamped on the worker's events is ``first_index + 1`` (the
    parent is shard 0).
    """
    rec = _ACTIVE
    if rec is None:
        return None
    cfg = rec.config
    return {
        "path": (
            str(Path(cfg.path).with_name(f"{Path(cfg.path).name}.shard-{first_index:06d}"))
            if cfg.path is not None
            else None
        ),
        "sample_rate": cfg.sample_rate,
        "max_records_per_file": cfg.max_records_per_file,
        "ring_size": cfg.ring_size,
        "seed": cfg.seed,
        "shard": int(first_index) + 1,
        "n_slowest": cfg.n_slowest,
        "keep_records": rec.keeps_records,
    }


def shard_recorder(cfg: Mapping[str, Any]) -> EventRecorder:
    """Build (without activating) the shard recorder described by ``cfg``."""
    fields = dict(cfg)
    keep_records = fields.pop("keep_records", True)
    path = fields.get("path")
    fields["path"] = Path(path) if path is not None else None
    return EventRecorder(EventConfig(**fields), keep_records=keep_records)


def shard_payload(rec: EventRecorder) -> dict[str, Any]:
    """Close a shard recorder and return its picklable merge payload.

    The payload carries the shard's span aggregate and the worker's
    paired clock origins, so the parent can align the shard's monotonic
    timestamps onto its own timeline.
    """
    rec.close()
    payload: dict[str, Any] = {
        "shard": rec.config.shard,
        "wall_origin_unix_s": rec.wall_origin_unix_s,
        "mono_origin_us": rec.mono_origin_us,
        "profile": rec.span_profile(),
    }
    if rec.config.path is not None:
        payload["paths"] = [str(p) for p in rec.paths]
    elif rec.keeps_records:
        payload["records"] = rec.records()
    return payload


def start_shard(cfg: Mapping[str, Any] | None) -> EventRecorder | None:
    """Worker side: activate the shard recorder described by ``cfg``.

    The shard recorder replaces any fork-inherited one, so the parent's
    file is never written through. ``None`` (recording off, or an
    in-process task that records straight into the parent's recorder)
    is a no-op.
    """
    global _ACTIVE
    if cfg is None:
        return None
    _ACTIVE = shard_recorder(cfg)
    return _ACTIVE


def finish_shard() -> dict[str, Any] | None:
    """Worker side: close the active shard recorder, return its payload."""
    rec = _ACTIVE
    if rec is None:
        return None
    payload = shard_payload(rec)
    reset_for_worker()
    return payload


def absorb_shard(
    payload: Mapping[str, Any] | None, *, dispatched_us: int | None = None
) -> None:
    """Parent side: fold one shard's payload into the active recorder.

    The shard's span aggregate adds into the parent's. Every absorbed
    timestamp is shifted by one constant per-shard offset
    computed from the paired clock origins, mapping the worker's
    monotonic clock onto the parent's. A constant shift preserves every
    intra-trace interval (each trace is recorded wholly in one process),
    so the merged timeline stays causally ordered. Call in shard (block)
    order to keep the merged stream deterministic.

    With ``dispatched_us`` (the parent's clock when the pool was
    dispatched) a parent-side ``dispatch`` span is emitted first; the
    Perfetto export draws a flow arrow from it to the shard's first
    event, tying the cross-process timelines together.
    """
    rec = _ACTIVE
    if rec is None or payload is None:
        return
    rec.merge_profile(payload.get("profile", {}))
    if not rec.keeps_records:
        return
    if dispatched_us is not None:
        rec.complete(
            "dispatch",
            begin_us=dispatched_us,
            end_us=now_us(),
            attrs={"shard": int(payload.get("shard", 0))},
        )
    offset_us = (
        rec.mono_origin_us
        - int(payload["mono_origin_us"])
        + round(
            (float(payload["wall_origin_unix_s"]) - rec.wall_origin_unix_s) * 1e6
        )
    )

    def _aligned(record: dict[str, Any]) -> dict[str, Any]:
        record["ts"] = int(record["ts"]) + offset_us
        return record

    for record in payload.get("records", ()):
        rec.absorb(_aligned(dict(record)))
    for path_str in payload.get("paths", ()):
        path = Path(path_str)
        for record in _read_file(path):
            rec.absorb(_aligned(record))
        path.unlink()


def _read_file(path: Path) -> Iterator[dict[str, Any]]:
    """Records of one JSONL file; malformed lines raise ``ValidationError``."""
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: malformed JSON ({exc.msg})")
            if not isinstance(record, dict):
                raise ValidationError(
                    f"{path}:{lineno}: expected a JSON object, got "
                    f"{type(record).__name__}"
                )
            ts = record.get("ts")
            if "name" not in record or isinstance(ts, bool) or not isinstance(ts, int):
                raise ValidationError(
                    f"{path}:{lineno}: not an event (needs 'name' and integer 'ts')"
                )
            yield record


def read_events(path: str | Path) -> Iterator[dict[str, Any]]:
    """Iterate events from a recording and its rotated continuations.

    Raises:
        ValidationError: on a line that is not a JSON event object,
            naming the file and line.
    """
    base = Path(path)
    part = 0
    current = base
    while current.exists():
        yield from _read_file(current)
        part += 1
        current = base.with_name(f"{base.name}.{part}")


# --- export --------------------------------------------------------------------


def _trace_tid(trace_id: str) -> int:
    """Stable per-trace track id (one Chrome tid per trace).

    Within one asyncio process, spans of different in-flight traces
    interleave; giving each trace its own track keeps every begin/end
    pair properly nested per track. ``req-<n>`` maps to ``n + 1``; any
    other id (e.g. a sweep's ``"<src>|<dst>|<key>"``) hashes with CRC-32.
    """
    prefix, _, number = trace_id.partition("req-")
    if not prefix and number.isdigit():
        return int(number) % (2**31 - 2) + 1
    return zlib.crc32(trace_id.encode()) % (2**31 - 2) + 1


def to_chrome_trace(records: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Convert raw events to Chrome ``trace_event`` JSON (Perfetto-loadable).

    Each ``X`` record becomes a matched ``B``/``E`` pair on track
    ``(pid=shard, tid=trace)``; process-scope events share tid 0. Flow
    events (``s``/``f``) tie each request root to its ``serve`` child
    (submit -> serve across the queue), and each parent ``dispatch``
    span to the first event of the worker shard it launched (across
    processes).
    """
    records = [dict(r) for r in records]
    events: list[tuple[tuple[int, ...], dict[str, Any]]] = []

    def _add(ev: dict[str, Any], *order: int) -> None:
        events.append(((ev["pid"], ev["tid"], ev["ts"], *order), ev))

    roots: dict[str, dict[str, Any]] = {}
    serves: dict[str, dict[str, Any]] = {}
    shard_first: dict[int, dict[str, Any]] = {}
    dispatches: dict[int, dict[str, Any]] = {}

    for i, r in enumerate(records):
        pid = int(r.get("shard", 0))
        trace_id = r.get("trace")
        tid = _trace_tid(trace_id) if trace_id is not None else 0
        ts = int(r["ts"])
        dur = int(r.get("dur", 0))
        args: dict[str, Any] = {"span": r.get("span")}
        if trace_id is not None:
            args["trace"] = trace_id
        if r.get("parent") is not None:
            args["parent"] = r["parent"]
        if r.get("attrs"):
            args.update(r["attrs"])
        name = r.get("path") or r.get("name") or "?"
        common = {"name": name, "cat": "span", "pid": pid, "tid": tid, "args": args}
        # Nesting-safe ordering at equal timestamps: close inner spans
        # (shortest first), then open outer spans (longest first); a
        # zero-duration span opens and closes back to back after them.
        if dur > 0:
            _add({"ph": "B", "ts": ts, **common}, 1, -dur, i, 0)
            _add({"ph": "E", "ts": ts + dur, **common}, 0, dur, i, 0)
        else:
            _add({"ph": "B", "ts": ts, **common}, 1, 1, i, 0)
            _add({"ph": "E", "ts": ts, **common}, 1, 1, i, 1)
        if trace_id is not None:
            if r.get("parent") is None:
                roots[trace_id] = {"pid": pid, "tid": tid, "ts": ts}
            elif name == "serve" and trace_id not in serves:
                serves[trace_id] = {"pid": pid, "tid": tid, "ts": ts}
        else:
            if name == "dispatch" and isinstance(r.get("attrs"), dict):
                shard = r["attrs"].get("shard")
                if isinstance(shard, int):
                    dispatches[shard] = {"pid": pid, "tid": tid, "ts": ts}
        if pid > 0:
            first = shard_first.get(pid)
            if first is None or ts < first["ts"]:
                shard_first[pid] = {"pid": pid, "tid": tid, "ts": ts}

    def _flow(ph: str, fid: str, at: dict[str, Any], name: str) -> None:
        ev = {
            "ph": ph,
            "id": fid,
            "name": name,
            "cat": "flow",
            "pid": at["pid"],
            "tid": at["tid"],
            "ts": at["ts"],
        }
        if ph == "f":
            ev["bp"] = "e"
        _add(ev, 2, 0, 0, 0)

    for trace_id, root in roots.items():
        serve = serves.get(trace_id)
        if serve is not None:
            _flow("s", trace_id, root, "submit->serve")
            _flow("f", trace_id, serve, "submit->serve")
    for shard, disp in dispatches.items():
        first = shard_first.get(shard)
        if first is not None:
            fid = f"shard-{shard}"
            _flow("s", fid, disp, "dispatch->shard")
            _flow("f", fid, first, "dispatch->shard")

    events.sort(key=lambda it: it[0])
    return {
        "traceEvents": [ev for _, ev in events],
        "displayTimeUnit": "ms",
        "otherData": {"schema": EVENT_SCHEMA_VERSION, "producer": "repro.obs.events"},
    }


def render_tree(
    records: Iterable[Mapping[str, Any]], *, limit: int = 0
) -> str:
    """ASCII per-trace tree: each trace's spans nested under its root.

    Args:
        records: raw event records (any order).
        limit: keep only the ``limit`` slowest traces (0 = all).
    """
    traces: dict[str, list[dict[str, Any]]] = {}
    n_process_scope = 0
    for r in records:
        trace_id = r.get("trace")
        if trace_id is None:
            n_process_scope += 1
            continue
        traces.setdefault(trace_id, []).append(dict(r))

    entries = []
    for trace_id, recs in traces.items():
        root = next((r for r in recs if r.get("parent") is None), None)
        if root is None:
            continue
        entries.append((trace_id, root, recs))
    entries.sort(key=lambda e: (-int(e[1].get("dur", 0)), e[0]))
    if limit > 0:
        entries = entries[:limit]
    entries.sort(key=lambda e: (int(e[1]["ts"]), e[0]))

    def _fmt_attrs(r: Mapping[str, Any]) -> str:
        attrs = r.get("attrs")
        if not attrs:
            return ""
        body = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        return f"  [{body}]"

    lines: list[str] = []
    for trace_id, root, recs in entries:
        t0 = int(root["ts"])
        lines.append(
            f"{trace_id}  {int(root.get('dur', 0)) / 1000.0:.3f} ms"
            f"  (shard {root.get('shard', 0)}){_fmt_attrs(root)}"
        )
        children: dict[int | None, list[dict[str, Any]]] = {}
        for r in recs:
            if r is root:
                continue
            children.setdefault(r.get("parent"), []).append(r)
        for sibling_list in children.values():
            sibling_list.sort(key=lambda r: (int(r["ts"]), int(r.get("span", 0))))

        def _emit(parent_id: int | None, depth: int) -> None:
            kids = children.get(parent_id, [])
            for i, r in enumerate(kids):
                branch = "└─" if i == len(kids) - 1 else "├─"
                lines.append(
                    f"  {'  ' * depth}{branch} {r.get('path') or r.get('name')}"
                    f"  +{(int(r['ts']) - t0) / 1000.0:.3f} ms"
                    f"  {int(r.get('dur', 0)) / 1000.0:.3f} ms{_fmt_attrs(r)}"
                )
                _emit(r.get("span"), depth + 1)

        _emit(root.get("span"), 0)
    if n_process_scope:
        lines.append(f"({n_process_scope} process-scope events not shown per trace)")
    if not lines:
        lines.append("(no trace events)")
    return "\n".join(lines)
