"""The server's inline (uncontended) path and the report's repr.

A request whose tenant has nothing pending is served inside ``submit``
through the consumer's own body; everything else queues. These tests
pin that the two paths together keep per-tenant FIFO order, the
shedding/backpressure semantics and the accounting invariant, and that
the inline path serves exactly what the batch path serves. A recording
engine proxy notes which task served each request: the producer's task
means inline, a consumer task means queued.
"""

import asyncio
import dataclasses

import pytest

from repro.serve import (
    ServeOutcome,
    ServeServer,
    ServerConfig,
    StreamReport,
    build_engine,
    outcomes_equal,
)


@pytest.fixture(scope="module")
def engine(small_ephemeris):
    return build_engine("cached", small_ephemeris)


class _Recording:
    """Engine proxy noting each request's id and serving task."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.order: list[int] = []
        self.tasks: list[asyncio.Task | None] = []

    def __getattr__(self, name):
        return getattr(self.engine, name)

    def submit(self, request):
        self.order.append(request.request_id)
        self.tasks.append(asyncio.current_task())
        return self.engine.submit(request)

    def n_inline(self, producer: asyncio.Task) -> int:
        return sum(task is producer for task in self.tasks)


def _assert_fifo_per_tenant(order, stream):
    tenant_of = {r.request_id: r.tenant for r in stream}
    for tenant in set(tenant_of.values()):
        ids = [i for i in order if tenant_of[i] == tenant]
        assert ids == sorted(ids), tenant


class TestFastPath:
    @pytest.mark.asyncio
    async def test_two_tenants_interleaved_keep_fifo(self, small_ephemeris, aligned_stream):
        assert {r.tenant for r in aligned_stream} == {"tenant-0", "tenant-1"}
        recording = _Recording(build_engine("cached", small_ephemeris))
        server = ServeServer(recording, config=ServerConfig(queue_depth=64))
        # A backlog before start() makes the first requests queue; later
        # ones go inline once their tenant's queue has drained.
        for request in aligned_stream[:6]:
            assert await server.submit(request) is None
        server.start()
        for request in aligned_stream[6:]:
            assert await server.submit(request) is None
        await server.drain()
        report = server.report()
        assert report.accounting_ok and report.n_shed == 0
        assert sorted(recording.order) == [r.request_id for r in aligned_stream]
        _assert_fifo_per_tenant(recording.order, aligned_stream)
        n_inline = recording.n_inline(asyncio.current_task())
        assert 0 < n_inline < len(aligned_stream)
        # Queued and inline requests alike serve what the batch path does.
        batched = build_engine("cached", small_ephemeris).serve_batch(aligned_stream)
        for a, b in zip(report.outcomes, batched, strict=True):
            assert outcomes_equal(a, b), (a, b)

    @pytest.mark.asyncio
    async def test_uncontended_stream_never_queues(self, engine, aligned_stream):
        recording = _Recording(engine)
        server = ServeServer(recording)
        report = await server.run(aligned_stream)
        assert recording.n_inline(asyncio.current_task()) == len(aligned_stream)
        assert report.max_queue_depth == 0
        assert report.accounting_ok and report.n_cancelled == 0

    @pytest.mark.asyncio
    async def test_inline_outcomes_equal_batch(self, small_ephemeris, aligned_stream):
        recording = _Recording(build_engine("cached", small_ephemeris))
        report = await ServeServer(recording).run(aligned_stream)
        assert recording.n_inline(asyncio.current_task()) == len(aligned_stream)
        batched = build_engine("cached", small_ephemeris).serve_batch(aligned_stream)
        assert len(report.outcomes) == len(batched) == len(aligned_stream)
        for a, b in zip(report.outcomes, batched):
            assert outcomes_equal(a, b), (a, b)

    @pytest.mark.asyncio
    async def test_pre_start_submissions_queue_and_shed(self, engine, solo_stream):
        recording = _Recording(engine)
        server = ServeServer(recording, config=ServerConfig(queue_depth=3))
        results = [await server.submit(r) for r in solo_stream[:5]]
        assert [o is None for o in results] == [True] * 3 + [False] * 2
        assert recording.order == []
        server.start()
        # The consumer has not run yet: the queue is still full.
        shed = await server.submit(solo_stream[5])
        assert shed is not None and shed.request_id == solo_stream[5].request_id
        # The yield above let the consumer drain the backlog, so the
        # next request goes inline.
        assert recording.order == [r.request_id for r in solo_stream[:3]]
        assert await server.submit(solo_stream[6]) is None
        assert recording.order[-1] == solo_stream[6].request_id
        assert recording.tasks[-1] is asyncio.current_task()
        await server.drain()
        report = server.report()
        assert report.n_shed == 3 and report.n_submitted == 7
        assert report.accounting_ok

    @pytest.mark.asyncio
    async def test_abort_with_backlog_keeps_accounting(self, engine, solo_stream):
        server = ServeServer(engine, config=ServerConfig(queue_depth=4))
        for request in solo_stream[:6]:
            await server.submit(request)
        await server.submit(dataclasses.replace(solo_stream[6], tenant="other"))
        server.start()
        # Consumers are cancelled before they pull anything: the backlog
        # (4 + 1 queued) is cancelled, the 2 shed outcomes stay.
        await server.abort()
        report = server.report()
        assert (report.n_submitted, report.n_shed, report.n_cancelled) == (7, 2, 5)
        assert report.n_served + report.n_denied == 0
        assert report.accounting_ok
        assert len(report.outcomes) + report.n_cancelled == 7

    @pytest.mark.asyncio
    async def test_backpressure_behind_a_backlog_never_sheds(self, engine, solo_stream):
        recording = _Recording(engine)
        server = ServeServer(
            recording, config=ServerConfig(queue_depth=2, shed_on_full=False)
        )
        for request in solo_stream[:2]:
            assert await server.submit(request) is None
        server.start()
        for request in solo_stream[2:]:
            assert await server.submit(request) is None
        await server.drain()
        report = server.report()
        assert report.n_shed == 0 and report.n_cancelled == 0
        assert report.accounting_ok
        assert report.max_queue_depth <= 2
        assert recording.order == [r.request_id for r in solo_stream]


class TestReportRepr:
    @staticmethod
    def _report(n: int) -> StreamReport:
        outcomes = tuple(
            ServeOutcome(
                request_id=i,
                source="ttu-0",
                destination="epb-3",
                t_s=60.0,
                tenant="default",
                served=True,
                path=("ttu-0", "sat-004", "epb-3"),
                path_eta=1e-3,
                fidelity=0.95,
                cause=None,
            )
            for i in range(n)
        )
        return StreamReport(
            outcomes=outcomes,
            n_submitted=10,
            n_served=10,
            n_denied=0,
            n_shed=0,
            n_cancelled=0,
        )

    def test_repr_length_independent_of_outcomes(self):
        small, large = self._report(10), self._report(10_000)
        assert len(repr(small)) == len(repr(large))
        assert "outcomes" not in repr(large)
        assert len(large.outcomes) == 10_000
