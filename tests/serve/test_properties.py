"""Property-based tests: random streams and fault schedules.

Hypothesis drives randomized request streams (seed, rate, tenant count)
and random fault schedules (reusing the chaos suite's event strategies)
through the differential invariants: streaming == batch per engine kind,
serving accounting covers the stream, and admission shedding is exact.
Engines are reused across examples where the schedule is fixed —
outcomes are pure functions of the request, so engine reuse is itself
part of the statelessness claim.
"""

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.workload import align_to_grid, poisson_request_stream
from repro.serve import ServeServer, ServerConfig, build_engine, outcomes_equal

from tests.faults.test_chaos import schedules
from tests.serve.conftest import HORIZON_S

PROPERTY_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
rates = st.floats(min_value=0.002, max_value=0.02)
tenant_counts = st.integers(min_value=1, max_value=3)


def make_stream(lans, times_s, seed, rate, n_tenants):
    tenants = tuple(f"tenant-{i}" for i in range(n_tenants))
    stream = poisson_request_stream(
        lans, rate_hz=rate, duration_s=HORIZON_S, seed=seed, tenants=tenants
    )
    return align_to_grid(stream, times_s)


def run_stream(engine, requests):
    server = ServeServer(
        engine,
        config=ServerConfig(queue_depth=len(requests) + 1, shed_on_full=False),
    )
    report = asyncio.run(server.run(requests))
    assert report.accounting_ok and report.n_shed == 0
    return list(report.outcomes)


@pytest.fixture(scope="module")
def cached_engine(small_ephemeris):
    return build_engine("cached", small_ephemeris)


@pytest.fixture(scope="module")
def direct_engine(small_ephemeris):
    return build_engine("direct", small_ephemeris)


@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(seed=seeds, rate=rates, n_tenants=tenant_counts)
def test_stream_generator_invariants(lans, small_ephemeris, seed, rate, n_tenants):
    """IDs ascend, times sort onto the grid, endpoints cross LANs."""
    raw = poisson_request_stream(
        lans,
        rate_hz=rate,
        duration_s=HORIZON_S,
        seed=seed,
        tenants=tuple(f"tenant-{i}" for i in range(n_tenants)),
    )
    lan_of = {name: lan for lan, names in lans.items() for name in names}
    assert [r.request_id for r in raw] == list(range(len(raw)))
    assert all(0.0 < r.t_s < HORIZON_S for r in raw)
    assert all(a.t_s <= b.t_s for a, b in zip(raw, raw[1:]))
    assert all(lan_of[r.source] != lan_of[r.destination] for r in raw)
    assert all(r.tenant.startswith("tenant-") for r in raw)

    grid = small_ephemeris.times_s
    aligned = align_to_grid(raw, grid)
    grid_values = set(float(t) for t in grid)
    for before, after in zip(raw, aligned):
        assert after.request_id == before.request_id
        assert after.endpoints == before.endpoints
        assert after.t_s in grid_values
        assert after.t_s <= before.t_s


@settings(max_examples=8, **PROPERTY_SETTINGS)
@given(seed=seeds, rate=rates, n_tenants=tenant_counts)
def test_streaming_equals_batch_on_random_streams(
    cached_engine, direct_engine, lans, small_ephemeris, seed, rate, n_tenants
):
    stream = make_stream(lans, small_ephemeris.times_s, seed, rate, n_tenants)
    if not stream:
        return
    batched = {}
    for engine in (cached_engine, direct_engine):
        streamed = run_stream(engine, stream)
        batched[engine.name] = engine.serve_batch(stream)
        assert len(streamed) == len(batched[engine.name]) == len(stream)
        for a, b in zip(streamed, batched[engine.name]):
            assert outcomes_equal(a, b), (engine.name, a, b)
    # Production vs oracle: the serving decision itself is kind-independent.
    assert [o.served for o in batched["cached"]] == [o.served for o in batched["direct"]]


@settings(max_examples=8, **PROPERTY_SETTINGS)
@given(schedule=schedules(), seed=seeds)
def test_fault_schedules_preserve_equivalence(
    lans, small_ephemeris, schedule, seed
):
    """Streaming == batch and accounting holds under any fault schedule."""
    stream = make_stream(lans, small_ephemeris.times_s, seed, 0.008, 2)
    if not stream:
        return
    engine = build_engine("cached", small_ephemeris, faults=schedule)
    streamed = run_stream(engine, stream)
    batched = engine.serve_batch(stream)
    for a, b in zip(streamed, batched):
        assert outcomes_equal(a, b), (a, b)
    n_served = sum(o.served for o in batched)
    causes = [o.cause for o in batched if not o.served]
    assert all(c is not None for c in causes)
    assert n_served + len(causes) == len(stream)


@settings(max_examples=25, **PROPERTY_SETTINGS)
@given(
    depth=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=0, max_value=20),
)
def test_shedding_is_exact(cached_engine, lans, small_ephemeris, depth, n):
    """With no consumer running, exactly max(n - depth, 0) requests shed."""
    stream = make_stream(lans, small_ephemeris.times_s, 23, 0.01, 1)[:n]

    async def scenario():
        server = ServeServer(cached_engine, config=ServerConfig(queue_depth=depth))
        shed = [o for r in stream if (o := await server.submit(r)) is not None]
        await server.abort()
        return shed, server.report()

    shed, report = asyncio.run(scenario())
    expected = max(len(stream) - depth, 0)
    assert len(shed) == expected
    assert report.n_shed == expected
    assert report.n_cancelled == min(len(stream), depth)
    assert report.accounting_ok
