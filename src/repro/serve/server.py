"""Asyncio front end: admission queues, backpressure, service telemetry.

:class:`ServeServer` runs one consumer task per tenant over bounded
:class:`asyncio.Queue` admission queues. Producers :meth:`submit`
timestamped requests; each consumer advances its engine's monotonic
time cursor to the request's arrival time and serves it. A request whose
tenant has nothing pending is served inline by :meth:`submit` through
the consumer's own body, so an uncontended stream never queues. An
inline submission yields to the event loop only on every 16th
submission; a queued or shed one yields every time.
Admission control has two modes:

* **shedding** (default): a request arriving at a full tenant queue is
  denied immediately with the canonical ``queue_full`` cause — a
  first-class :class:`~repro.serve.engine.ServeOutcome`, counted and
  traceable, never a silent drop;
* **backpressure** (``shed_on_full=False``): :meth:`submit` awaits
  queue space, pushing the arrival process back instead.

Telemetry rides the existing :mod:`repro.obs` plane with one
instrument per series — windowed submitted / served / denied / shed
counters, a wall-clock service-latency histogram, queue-depth, cursor
and active-fault gauges, each also keeping the all-time view the run
manifest reads — plus a cancelled counter. The
:class:`StreamReport` returned by :meth:`ServeServer.run` carries exact
percentile latencies computed from every sample.

Determinism: engine outcomes are pure functions of the request, so the
interleaving of consumer tasks cannot change any outcome's content —
only completion order, which the report normalizes by ``request_id``.
Shutdown is explicit: :meth:`drain` finishes every admitted request and
checks the accounting invariant (submitted == served + denied + shed),
:meth:`abort` cancels consumers and counts abandoned requests, keeping
the same invariant with cancellations included.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import ValidationError
from repro.obs import events as _events
from repro.obs import live
from repro.obs.trace import DenialCause
from repro.serve.engine import ServeOutcome, SimulatorServeEngine

__all__ = [
    "LATENCY_BUCKETS_S",
    "LIVE_WINDOW_S",
    "ServeServer",
    "ServerConfig",
    "StreamReport",
]

#: Latency histogram bucket upper bounds [s]: log-spaced micro- to second scale.
LATENCY_BUCKETS_S = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0,
)

#: Sliding-window span of the live ``serve.*`` instruments [s].
LIVE_WINDOW_S = 60.0

# Import-time instruments, one per series (one flag check each when
# telemetry is off). Each windowed instrument keeps per-second rates and
# rolling quantiles over the last LIVE_WINDOW_S seconds for the HTTP
# scrape plane and the SLO tracker, and its all-time view under the
# cumulative name (serve.requests.*, serve.latency_s, ...) for the run
# manifest: one write feeds both.
_SUBMITTED = live.windowed_counter(
    "serve.live.submitted", LIVE_WINDOW_S, total_name="serve.requests.submitted"
)
_SERVED = live.windowed_counter(
    "serve.live.served", LIVE_WINDOW_S, total_name="serve.requests.served"
)
_DENIED = live.windowed_counter(
    "serve.live.denied", LIVE_WINDOW_S, total_name="serve.requests.denied"
)
_SHED = live.windowed_counter(
    "serve.live.shed", LIVE_WINDOW_S, total_name="serve.requests.shed"
)
_LATENCY = live.windowed_histogram(
    "serve.live.latency_s",
    LIVE_WINDOW_S,
    total_name="serve.latency_s",
    buckets=LATENCY_BUCKETS_S,
)
_QUEUE_DEPTH = live.windowed_gauge(
    "serve.live.queue_depth", LIVE_WINDOW_S, total_name="serve.queue.depth"
)
_FAULTS_ACTIVE = live.windowed_gauge(
    "serve.live.faults_active", LIVE_WINDOW_S, total_name="serve.faults.active"
)
_TIME_CURSOR = live.windowed_gauge(
    "serve.live.cursor_s", LIVE_WINDOW_S, total_name="serve.time_cursor_s"
)
_CANCELLED = obs.counter("serve.requests.cancelled")

_SENTINEL = object()
_QUEUE_FULL = DenialCause.QUEUE_FULL.value


_LIVE_CAUSE_COUNTERS: dict[str, live.WindowedCounter] = {}


def _live_cause_counter(cause: str) -> live.WindowedCounter:
    """Per-denial-cause windowed counter, created on first denial.

    Cached in a module dict: the registry's get-or-create is a hash of
    the full name plus kwargs validation — too heavy for the per-denial
    hot path. Registry resets keep instrument objects registered, so the
    cached references stay live.
    """
    counter = _LIVE_CAUSE_COUNTERS.get(cause)
    if counter is None:
        counter = _LIVE_CAUSE_COUNTERS[cause] = live.windowed_counter(
            f"serve.live.denied.{cause}", LIVE_WINDOW_S
        )
    return counter


@dataclass(frozen=True)
class ServerConfig:
    """Admission-control knobs.

    Attributes:
        queue_depth: per-tenant admission queue capacity.
        shed_on_full: deny (``queue_full``) at a full queue instead of
            making the producer wait.
    """

    queue_depth: int = 1024
    shed_on_full: bool = True

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValidationError("queue_depth must be >= 1")


@dataclass(frozen=True)
class StreamReport:
    """Aggregates of one streamed run.

    ``outcomes`` are sorted by ``request_id`` (completion order is an
    artifact of task interleaving, identity order is canonical). They
    stay out of the repr, so its length does not grow with the stream:
    ``asyncio.run`` reprs the main task, result included, when it
    finishes.
    """

    outcomes: tuple[ServeOutcome, ...] = field(repr=False)
    n_submitted: int
    n_served: int
    n_denied: int
    n_shed: int
    n_cancelled: int
    cause_counts: dict[str, int] = field(default_factory=dict)
    latency_p50_s: float = float("nan")
    latency_p99_s: float = float("nan")
    latency_mean_s: float = float("nan")
    max_queue_depth: int = 0
    wall_s: float = float("nan")

    @property
    def served_fraction(self) -> float:
        """Served fraction of completed (non-cancelled) requests."""
        done = self.n_served + self.n_denied + self.n_shed
        return self.n_served / done if done else float("nan")

    @property
    def requests_per_min(self) -> float:
        """Completed requests per wall-clock minute."""
        done = self.n_served + self.n_denied + self.n_shed
        return 60.0 * done / self.wall_s if self.wall_s > 0 else float("nan")

    @property
    def accounting_ok(self) -> bool:
        """Every submitted request is served, denied, shed or cancelled."""
        return (
            self.n_submitted
            == self.n_served + self.n_denied + self.n_shed + self.n_cancelled
        )


class ServeServer:
    """Per-tenant queued serving over one :class:`SimulatorServeEngine`.

    Args:
        engine: the serving engine.
        config: admission-control knobs.
        faults: optional compiled
            :class:`~repro.faults.plane.FaultPlane`; consumers report
            ``len(active_events(t))`` on the fault-pressure gauge, ``t``
            the grid sample the engine serves from, once per sample
            (the engine already *applies* the plane — this is
            observability only).

    Consumers start on :meth:`start` (or the :meth:`run` convenience).
    Requests submitted before ``start`` still queue — and shed
    deterministically once the queue fills — which the robustness tests
    use to pin shedding behavior without relying on scheduling.
    """

    def __init__(
        self,
        engine: SimulatorServeEngine,
        *,
        config: ServerConfig | None = None,
        faults=None,
    ) -> None:
        self.engine = engine
        self.config = config or ServerConfig()
        self.faults = faults if faults is not None and not faults.is_noop else None
        self.outcomes: list[ServeOutcome] = []
        self.n_submitted = 0
        self.n_served = 0
        self.n_denied = 0
        self.n_shed = 0
        self.n_cancelled = 0
        self.cause_counts: dict[str, int] = {}
        self.max_queue_depth = 0
        #: Grid time the engine serves the latest request from.
        self.time_cursor_s: float | None = None
        #: Moves of ``time_cursor_s`` — once per grid sample reached.
        self.n_cursor_advances = 0
        self._arrival_s: float | None = None
        self._latencies: list[float] = []
        self._queues: dict[str, asyncio.Queue] = {}
        self._consumers: dict[str, asyncio.Task] = {}
        self._started = False
        self._closed = False
        self._created_at = time.monotonic()

    # --- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start one consumer task per known tenant (idempotent)."""
        if self._closed:
            raise ValidationError("server already drained/aborted")
        self._started = True
        for tenant, queue in self._queues.items():
            if tenant not in self._consumers:
                self._consumers[tenant] = asyncio.get_running_loop().create_task(
                    self._consume(queue)
                )

    def _queue_for(self, tenant: str) -> asyncio.Queue:
        queue = self._queues.get(tenant)
        if queue is None:
            queue = asyncio.Queue(maxsize=self.config.queue_depth)
            self._queues[tenant] = queue
            if self._started:
                self._consumers[tenant] = asyncio.get_running_loop().create_task(
                    self._consume(queue)
                )
        return queue

    # --- submission ---------------------------------------------------------

    async def submit(self, request) -> ServeOutcome | None:
        """Admit one request; returns its shed outcome, or None if admitted.

        When the tenant's consumer is running and its queue is empty,
        the request is served inline (:meth:`_serve`): nothing of the
        tenant's is pending, so per-tenant FIFO holds, and the body has
        no await, so cancellation stays atomic. Otherwise it queues. In
        shedding mode a full queue denies immediately with cause
        ``queue_full``; in backpressure mode this coroutine waits for
        space. A queued or shed request yields to the event loop once;
        an inline one yields on every 16th submission, so a free-running
        producer hands the loop over at least once per 16 submissions
        and free-running producers and consumers interleave fairly.
        """
        if self._closed:
            raise ValidationError("server already drained/aborted")
        self.n_submitted += 1
        _SUBMITTED.inc()
        # Request root: one trace per request, id derived from the
        # request identity so serial and sharded replays agree. The
        # handle travels with the request (cross-coroutine when queued —
        # the root covers submit -> outcome, spanning queue residency),
        # collects the simulator's flight detail and is closed by _record.
        recorder = _events._ACTIVE
        handle = None
        if recorder is not None and recorder.keeps_records:
            handle = recorder.trace_begin(
                f"req-{request.request_id}",
                "request",
                attrs={"tenant": request.tenant, "t_s": request.t_s},
            )
        queue = self._queue_for(request.tenant)
        if self._started and queue.empty():
            self._serve(request, time.perf_counter(), handle)
            if self.n_submitted & 15:
                # Served inline: nothing of this request waits on the
                # loop, so hand it over only on every 16th submission
                # (below).
                return None
        elif self.config.shed_on_full and queue.full():
            shed = ServeOutcome(
                request.source, request.destination, request.t_s, False, (), 0.0,
                float("nan"), _QUEUE_FULL, request_id=request.request_id, tenant=request.tenant,
            )
            self._record(shed, latency=None, handle=handle)
            await asyncio.sleep(0)
            return shed
        else:
            await queue.put((request, time.perf_counter(), handle))
            self.max_queue_depth = max(self.max_queue_depth, queue.qsize())
        if self.n_submitted & 15 == 0:
            # Depth changes on every put/get; sampling every 16th submit
            # keeps the gauges honest without paying two gauge writes
            # per request. The exact peak stays in max_queue_depth.
            _QUEUE_DEPTH.set(queue.qsize())
        await asyncio.sleep(0)
        return None

    # --- consumption --------------------------------------------------------

    async def _consume(self, queue: asyncio.Queue) -> None:
        while True:
            item = await queue.get()
            if item is _SENTINEL:
                queue.task_done()
                return
            self._serve(*item)
            queue.task_done()

    def _serve(self, request, enqueued_at: float, handle) -> None:
        """Serve and record one admitted request: the consumer's body,
        also run inline by :meth:`submit`.

        It has no await, so it is atomic with respect to cancellation:
        a pulled request is always fully recorded, and abort() never
        half-counts one.
        """
        t_s = request.t_s
        self.engine.advance_to(t_s)
        if t_s != self._arrival_s:
            # The cursor and fault gauges key on the grid sample the
            # engine serves from, so they move once per sample whether
            # or not arrivals fall on the grid; a repeated arrival time
            # (a grid-aligned stream) skips even the sample lookup.
            self._arrival_s = t_s
            sample_s = self.engine.sample_s
            if sample_s != self.time_cursor_s:
                self.time_cursor_s = sample_s
                self.n_cursor_advances += 1
                _TIME_CURSOR.set(sample_s)
                if self.faults is not None:
                    _FAULTS_ACTIVE.set(len(self.faults.active_events(sample_s)))
        if handle is not None:
            # Queue residency as a complete child span (its begin
            # predates this call when the request was queued), then the
            # engine call scoped under the root so every nested obs.span
            # parents into this trace — or is suppressed wholesale when
            # the trace is unsampled.
            handle.child_complete("queue", begin_us=int(enqueued_at * 1e6))
            with handle.scope():
                outcome = self.engine.submit(request)
        else:
            outcome = self.engine.submit(request)
        self._record(outcome, latency=time.perf_counter() - enqueued_at, handle=handle)

    def _record(
        self,
        outcome: ServeOutcome,
        *,
        latency: float | None,
        handle=None,
    ) -> None:
        self.outcomes.append(outcome)
        if outcome.served:
            self.n_served += 1
            _SERVED.inc()
        elif outcome.cause == _QUEUE_FULL:
            self.n_shed += 1
            _SHED.inc()
        else:
            self.n_denied += 1
            _DENIED.inc()
        if outcome.cause is not None:
            self.cause_counts[outcome.cause] = self.cause_counts.get(outcome.cause, 0) + 1
            _live_cause_counter(outcome.cause).inc()
        if latency is not None:
            self._latencies.append(latency)
            if handle is not None and handle.sampled:
                # Retain the trace id of the slowest observation per
                # bucket/window so /metrics exemplars and /status can
                # point at a concrete timeline for any latency spike.
                _LATENCY.observe_with_exemplar(latency, handle.trace_id)
            else:
                _LATENCY.observe(latency)
        if handle is not None:
            attrs: dict = {"served": outcome.served}
            if outcome.cause is not None:
                attrs["cause"] = outcome.cause
            if outcome.purified:
                # Path-choice detail for multipath deliveries: how many
                # pairs the purification consumed is what distinguishes
                # a rescued request on the timeline.
                attrs["purified"] = True
                attrs["n_paths"] = outcome.n_paths
            handle.end(attrs=attrs)

    # --- shutdown -----------------------------------------------------------

    async def drain(self) -> None:
        """Finish every admitted request, then stop all consumers.

        After the drain the accounting invariant holds with zero
        cancellations; further submissions are rejected.
        """
        self.start()
        for queue in self._queues.values():
            await queue.put(_SENTINEL)
        if self._consumers:
            await asyncio.gather(*self._consumers.values())
        self._consumers.clear()
        self._closed = True

    async def abort(self) -> None:
        """Cancel consumers; count abandoned queued requests as cancelled."""
        for task in self._consumers.values():
            task.cancel()
        if self._consumers:
            await asyncio.gather(*self._consumers.values(), return_exceptions=True)
        self._consumers.clear()
        for queue in self._queues.values():
            while not queue.empty():
                item = queue.get_nowait()
                if item is not _SENTINEL:
                    self.n_cancelled += 1
                    _CANCELLED.inc()
                    handle = item[2]
                    if handle is not None:
                        # Abandoned requests still close their root span
                        # so the stream never leaks an open trace; they
                        # count as cancelled, never as a denial cause.
                        handle.end(attrs={"served": False, "cancelled": True})
        self._closed = True

    # --- live observability -------------------------------------------------

    def status(self) -> dict:
        """JSON-safe live snapshot of the server — the ``/status`` body.

        Everything here reads existing state or the windowed instruments;
        no engine work happens, so a scrape never perturbs serving.
        """
        denial_rates = {
            cause: _live_cause_counter(cause).rate() for cause in self.cause_counts
        }
        return {
            "engine": self.engine.name,
            "started": self._started,
            "closed": self._closed,
            "uptime_s": time.monotonic() - self._created_at,
            "time_cursor_s": self.time_cursor_s,
            "cursor_advances": self.n_cursor_advances,
            "engine_cursor": self.engine.cursor_info(),
            "window_s": LIVE_WINDOW_S,
            "counts": {
                "submitted": self.n_submitted,
                "served": self.n_served,
                "denied": self.n_denied,
                "shed": self.n_shed,
                "cancelled": self.n_cancelled,
            },
            "rates_per_s": {
                "submitted": _SUBMITTED.rate(),
                "served": _SERVED.rate(),
                "denied": _DENIED.rate(),
                "shed": _SHED.rate(),
            },
            "latency_s": {
                "p50": _LATENCY.quantile(0.5),
                "p99": _LATENCY.quantile(0.99),
                "mean": _LATENCY.mean(),
                "window_count": _LATENCY.count(),
                "exemplar": _LATENCY.exemplar(),
            },
            "queues": {
                tenant: queue.qsize() for tenant, queue in sorted(self._queues.items())
            },
            "max_queue_depth": self.max_queue_depth,
            "denial_causes": dict(self.cause_counts),
            "denial_rates_per_s": denial_rates,
            "faults_active": (
                len(self.faults.active_events(self.time_cursor_s))
                if self.faults is not None and self.time_cursor_s is not None
                else 0
            ),
        }

    def slo_tracker(self, spec):
        """An :class:`~repro.obs.slo.SLOTracker` over this server's live
        instruments (shared process-wide — one tracker per process)."""
        from repro.obs.slo import SLOTracker

        return SLOTracker(
            spec,
            submitted=_SUBMITTED,
            served=_SERVED,
            denied=_DENIED,
            shed=_SHED,
            latency=_LATENCY,
        )

    # --- reporting ----------------------------------------------------------

    def report(self, *, wall_s: float = float("nan")) -> StreamReport:
        """Snapshot the run as a :class:`StreamReport` (exact percentiles)."""
        if self._latencies:
            lat = np.asarray(self._latencies)
            p50, p99 = (float(q) for q in np.percentile(lat, [50.0, 99.0]))
            mean = float(lat.mean())
        else:
            p50 = p99 = mean = float("nan")
        return StreamReport(
            outcomes=tuple(sorted(self.outcomes, key=lambda o: o.request_id)),
            n_submitted=self.n_submitted,
            n_served=self.n_served,
            n_denied=self.n_denied,
            n_shed=self.n_shed,
            n_cancelled=self.n_cancelled,
            cause_counts=dict(self.cause_counts),
            latency_p50_s=p50,
            latency_p99_s=p99,
            latency_mean_s=mean,
            max_queue_depth=self.max_queue_depth,
            wall_s=wall_s,
        )

    async def run(self, requests) -> StreamReport:
        """Convenience: start, submit a whole stream, drain, report."""
        t0 = time.perf_counter()
        self.start()
        for request in requests:
            await self.submit(request)
        await self.drain()
        return self.report(wall_s=time.perf_counter() - t0)
