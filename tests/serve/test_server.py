"""Robustness tests for the asyncio front end.

Shedding at a full queue is deterministic and canonical (never a silent
drop), backpressure mode never sheds, cancellation mid-run keeps the
accounting invariant, shutdown drains cleanly and closes the server,
and the serve.* metrics agree with the report. Queue-full behavior is
pinned by submitting *before* ``start()`` — with no consumer running
the queue fills deterministically, independent of task scheduling.
"""

import asyncio

import pytest

from repro.errors import ValidationError
from repro.obs.trace import DenialCause
from repro.serve import ServeServer, ServerConfig, build_engine


@pytest.fixture(scope="module")
def engine(small_ephemeris):
    return build_engine("cached", small_ephemeris)


class TestShedding:
    @pytest.mark.asyncio
    async def test_queue_full_sheds_canonically(self, engine, solo_stream):
        server = ServeServer(engine, config=ServerConfig(queue_depth=4))
        shed = []
        for request in solo_stream[:10]:
            outcome = await server.submit(request)
            if outcome is not None:
                shed.append(outcome)
        assert len(shed) == 6
        for outcome in shed:
            assert not outcome.served
            assert outcome.cause == DenialCause.QUEUE_FULL.value
            assert outcome.path == () and outcome.path_eta == 0.0
        server.start()
        await server.drain()
        report = server.report()
        assert report.n_submitted == 10
        assert report.n_shed == 6
        assert report.n_served + report.n_denied == 4
        assert report.accounting_ok
        # No silent drops: every submitted request has an outcome record.
        assert len(report.outcomes) == 10
        assert report.cause_counts[DenialCause.QUEUE_FULL.value] == 6
        assert {o.request_id for o in report.outcomes} == {
            r.request_id for r in solo_stream[:10]
        }

    @pytest.mark.asyncio
    async def test_shed_requests_keep_identity(self, engine, solo_stream):
        server = ServeServer(engine, config=ServerConfig(queue_depth=1))
        await server.submit(solo_stream[0])
        outcome = await server.submit(solo_stream[1])
        assert outcome is not None
        assert outcome.request_id == solo_stream[1].request_id
        assert outcome.tenant == solo_stream[1].tenant
        await server.abort()

    @pytest.mark.asyncio
    async def test_backpressure_never_sheds(self, engine, solo_stream):
        server = ServeServer(
            engine, config=ServerConfig(queue_depth=2, shed_on_full=False)
        )
        server.start()
        for request in solo_stream:
            assert await server.submit(request) is None
        await server.drain()
        report = server.report()
        assert report.n_shed == 0 and report.n_cancelled == 0
        assert report.n_served + report.n_denied == len(solo_stream)
        assert report.accounting_ok
        assert report.max_queue_depth <= 2

    def test_queue_depth_validated(self):
        with pytest.raises(ValidationError):
            ServerConfig(queue_depth=0)


class TestCancellation:
    @pytest.mark.asyncio
    async def test_abort_counts_queued_requests(self, engine, solo_stream):
        server = ServeServer(engine, config=ServerConfig(queue_depth=16))
        for request in solo_stream[:6]:
            await server.submit(request)
        await server.abort()
        report = server.report()
        assert report.n_submitted == 6
        assert report.n_cancelled == 6
        assert report.accounting_ok
        assert report.outcomes == ()

    @pytest.mark.asyncio
    async def test_abort_mid_run_keeps_accounting(self, engine, solo_stream):
        server = ServeServer(engine, config=ServerConfig(queue_depth=len(solo_stream)))
        server.start()
        for request in solo_stream:
            await server.submit(request)
        # Let consumers make some progress, then pull the plug.
        for _ in range(20):
            await asyncio.sleep(0)
        await server.abort()
        report = server.report()
        assert report.n_submitted == len(solo_stream)
        assert report.accounting_ok
        # A pulled request is recorded atomically: completed outcomes and
        # cancellations tile the stream exactly.
        assert len(report.outcomes) == report.n_served + report.n_denied + report.n_shed
        assert len(report.outcomes) + report.n_cancelled == len(solo_stream)

    @pytest.mark.asyncio
    async def test_submit_after_abort_rejected(self, engine, solo_stream):
        server = ServeServer(engine)
        await server.abort()
        with pytest.raises(ValidationError):
            await server.submit(solo_stream[0])


class TestDrain:
    @pytest.mark.asyncio
    async def test_drain_completes_everything(self, engine, solo_stream):
        server = ServeServer(engine)
        report = await server.run(solo_stream)
        assert report.accounting_ok
        assert report.n_cancelled == 0
        assert len(report.outcomes) == len(solo_stream)
        assert [o.request_id for o in report.outcomes] == [
            r.request_id for r in solo_stream
        ]
        assert report.wall_s > 0

    @pytest.mark.asyncio
    async def test_drain_closes_the_server(self, engine, solo_stream):
        server = ServeServer(engine)
        server.start()
        await server.submit(solo_stream[0])
        await server.drain()
        with pytest.raises(ValidationError):
            await server.submit(solo_stream[1])
        with pytest.raises(ValidationError):
            server.start()

    @pytest.mark.asyncio
    async def test_latency_percentiles_ordered(self, engine, solo_stream):
        server = ServeServer(engine)
        report = await server.run(solo_stream)
        assert 0.0 <= report.latency_p50_s <= report.latency_p99_s
        assert report.latency_mean_s > 0.0
        assert report.requests_per_min > 0.0

    @pytest.mark.asyncio
    async def test_late_tenant_gets_a_consumer(self, engine, solo_stream):
        """A tenant first seen after start() still gets drained."""
        import dataclasses

        server = ServeServer(engine)
        server.start()
        await server.submit(solo_stream[0])
        late = dataclasses.replace(solo_stream[1], tenant="late-tenant")
        await server.submit(late)
        await server.drain()
        report = server.report()
        assert report.accounting_ok and report.n_cancelled == 0
        assert {o.tenant for o in report.outcomes} == {"default", "late-tenant"}


class TestMetrics:
    @pytest.mark.asyncio
    async def test_counters_match_report(self, engine, solo_stream, telemetry):
        server = ServeServer(engine, config=ServerConfig(queue_depth=4))
        report = await server.run(solo_stream[:12])
        registry = telemetry.registry()
        assert registry.counter("serve.requests.submitted").value == report.n_submitted
        assert registry.counter("serve.requests.served").value == report.n_served
        assert registry.counter("serve.requests.denied").value == report.n_denied
        assert registry.counter("serve.requests.shed").value == report.n_shed
        latency = registry.histogram("serve.latency_s")
        assert latency.count == report.n_served + report.n_denied
        assert latency.quantile(0.5) <= latency.quantile(0.99)

    def test_one_instrument_per_series(self, telemetry):
        """The cumulative names are views of the windowed instruments."""
        from repro.serve import server as srv

        registry = telemetry.registry()
        for name, instrument in [
            ("serve.requests.submitted", srv._SUBMITTED),
            ("serve.requests.served", srv._SERVED),
            ("serve.requests.denied", srv._DENIED),
            ("serve.requests.shed", srv._SHED),
        ]:
            assert registry.counter(name) is instrument.all_time
        assert registry.histogram("serve.latency_s") is srv._LATENCY.all_time
        assert registry.gauge("serve.queue.depth") is srv._QUEUE_DEPTH.all_time


class _CountingPlane:
    """Fault-plane stand-in counting the server's ``active_events`` scans."""

    is_noop = False

    def __init__(self, plane) -> None:
        self.plane = plane
        self.times: list[float] = []

    def active_events(self, t_s):
        self.times.append(t_s)
        return self.plane.active_events(t_s)


class TestCursor:
    """Cursor and fault gauges key on the grid sample the engine serves."""

    @pytest.fixture(scope="class")
    def off_grid_stream(self, lans):
        from repro.network.workload import poisson_request_stream

        # ~0.2 Hz over the 60 s grid: several arrivals per sample, none
        # of them on it.
        return poisson_request_stream(lans, rate_hz=0.2, duration_s=1800.0, seed=3)

    @pytest.mark.asyncio
    async def test_off_grid_stream_advances_once_per_sample(
        self, small_ephemeris, off_grid_stream, mixed_schedule
    ):
        times = small_ephemeris.times_s
        assert not set(r.t_s for r in off_grid_stream) & set(times.tolist())
        held = [float(times[small_ephemeris.sample_index(r.t_s)]) for r in off_grid_stream]
        samples = sorted(set(held))
        assert len(samples) < len(off_grid_stream) // 5
        plane = _CountingPlane(mixed_schedule.compile())
        server = ServeServer(build_engine("cached", small_ephemeris), faults=plane)
        await server.run(off_grid_stream)
        assert server.n_cursor_advances == len(samples)
        assert plane.times == samples
        assert server.time_cursor_s == held[-1]

    @pytest.mark.asyncio
    async def test_aligned_stream_advances_once_per_sample(
        self, small_ephemeris, aligned_stream
    ):
        server = ServeServer(build_engine("cached", small_ephemeris))
        await server.run(aligned_stream)
        assert server.n_cursor_advances == len({r.t_s for r in aligned_stream})
        assert server.time_cursor_s == aligned_stream[-1].t_s
