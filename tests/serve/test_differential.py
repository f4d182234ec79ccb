"""The differential harness: streaming == batch, serial == sharded,
production == oracle.

One timestamped request sequence is replayed through the asyncio
streaming front end and through the engine's batch path, and the
outcomes must be bit-identical per engine kind — with and without a
non-empty fault schedule. The batch side is additionally pinned against
the *raw* sweep API (``NetworkSimulator.serve_requests``) so the
comparison is not circular, the production ``cached`` engine must agree
with the ``direct`` oracle, and the sharded replay must be independent
of worker count.
"""

import asyncio
from itertools import groupby

import numpy as np
import pytest

from repro.serve import (
    ENGINE_KINDS,
    ServeServer,
    ServerConfig,
    build_engine,
    outcomes_equal,
    serve_stream_sharded,
)

FAULT_IDS = ["healthy", "faulted"]


@pytest.fixture(params=FAULT_IDS)
def faults(request, mixed_schedule):
    return mixed_schedule if request.param == "faulted" else None


def run_stream(engine, requests):
    """Replay through the asyncio front end in backpressure mode."""
    server = ServeServer(
        engine,
        config=ServerConfig(queue_depth=len(requests) + 1, shed_on_full=False),
    )
    report = asyncio.run(server.run(requests))
    assert report.accounting_ok
    assert report.n_shed == 0 and report.n_cancelled == 0
    assert report.n_served + report.n_denied == len(requests)
    return list(report.outcomes)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_streaming_bit_identical_to_batch(
    kind, faults, small_ephemeris, aligned_stream
):
    """Fresh engine per side: submit() and serve_batch() cannot drift."""
    streamed = run_stream(
        build_engine(kind, small_ephemeris, faults=faults), aligned_stream
    )
    batched = build_engine(kind, small_ephemeris, faults=faults).serve_batch(
        aligned_stream
    )
    assert len(streamed) == len(batched) == len(aligned_stream)
    for a, b in zip(streamed, batched):
        assert outcomes_equal(a, b), (a, b)


@pytest.mark.parametrize("kind", ["cached", "direct"])
def test_simulator_batch_is_the_raw_sweep(kind, small_ephemeris, aligned_stream):
    """serve_batch must be NetworkSimulator.serve_requests, nothing else."""
    engine = build_engine(kind, small_ephemeris)
    batched = engine.serve_batch(aligned_stream)
    raws = []
    for t_s, group in groupby(aligned_stream, key=lambda r: r.t_s):
        group = list(group)
        raws.extend(
            engine.simulator.serve_requests([r.endpoints for r in group], t_s)
        )
    assert len(batched) == len(raws)
    for outcome, raw in zip(batched, raws):
        assert outcome.served == raw.served
        assert outcome.path == raw.path
        assert outcome.path_eta == raw.path_transmissivity
        assert outcome.fidelity == raw.fidelity or (
            np.isnan(outcome.fidelity) and np.isnan(raw.fidelity)
        )


def test_backends_agree_on_service(faults, small_ephemeris, aligned_stream):
    """Production (``cached``) serves what the ``direct`` oracle serves,
    with the same causes, healthy and under faults."""
    cached, direct = (
        build_engine(kind, small_ephemeris, faults=faults).serve_batch(aligned_stream)
        for kind in ("cached", "direct")
    )
    assert len(cached) == len(direct) == len(aligned_stream)
    for a, b in zip(cached, direct):
        assert a.served == b.served, (a, b)
        assert a.cause == b.cause, (a, b)
        if a.served:
            # Bit-identity is a per-engine guarantee (streaming vs
            # batch); across kinds the float op ordering differs
            # (vectorized vs scalar), so compare to round-off.
            assert np.isclose(a.path_eta, b.path_eta, rtol=1e-9, atol=0.0)
            assert np.isclose(a.fidelity, b.fidelity, rtol=1e-9, atol=0.0)


@pytest.fixture(scope="module")
def serial_outcomes(small_ephemeris, aligned_stream):
    return serve_stream_sharded(
        small_ephemeris, aligned_stream, engine="cached", n_workers=0
    )


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_serial_equals_sharded(
    n_workers, serial_outcomes, small_ephemeris, aligned_stream
):
    sharded = serve_stream_sharded(
        small_ephemeris, aligned_stream, engine="cached", n_workers=n_workers
    )
    assert len(sharded) == len(serial_outcomes) == len(aligned_stream)
    for a, b in zip(serial_outcomes, sharded):
        assert outcomes_equal(a, b), (a, b)


def test_serial_equals_sharded_under_faults(
    mixed_schedule, small_ephemeris, aligned_stream
):
    serial = serve_stream_sharded(
        small_ephemeris,
        aligned_stream,
        engine="cached",
        n_workers=0,
        faults=mixed_schedule,
    )
    sharded = serve_stream_sharded(
        small_ephemeris,
        aligned_stream,
        engine="cached",
        n_workers=2,
        faults=mixed_schedule,
    )
    for a, b in zip(serial, sharded):
        assert outcomes_equal(a, b), (a, b)
    # The outage must actually bite: some healthy-served request is lost.
    healthy = serve_stream_sharded(
        small_ephemeris, aligned_stream, engine="cached", n_workers=0
    )
    assert sum(o.served for o in serial) < sum(o.served for o in healthy)


def test_sharded_matches_batch_per_backend(small_ephemeris, aligned_stream):
    """The sharded replay is the same physics as serve_batch for every kind."""
    for kind in ENGINE_KINDS:
        batched = build_engine(kind, small_ephemeris).serve_batch(aligned_stream)
        sharded = serve_stream_sharded(
            small_ephemeris, aligned_stream, engine=kind, n_workers=0
        )
        for a, b in zip(batched, sharded):
            assert outcomes_equal(a, b), (kind, a, b)


def test_accounting_covers_stream(faults, small_ephemeris, aligned_stream):
    """served + per-cause denials == total, for every engine kind."""
    for kind in ENGINE_KINDS:
        outcomes = build_engine(kind, small_ephemeris, faults=faults).serve_batch(
            aligned_stream
        )
        n_served = sum(o.served for o in outcomes)
        causes = [o.cause for o in outcomes if not o.served]
        assert all(c is not None for c in causes)
        assert n_served + len(causes) == len(aligned_stream)
