"""Causal timeline tracing across the serve plane.

Pins the determinism contract of :mod:`repro.obs.events` end to end:
for a fixed seed, the set of trace-anchored events — ``(trace_id, span
path, attrs)`` tuples — is identical for a serial replay and any worker
count (the shard merge aligns each worker's monotonic clock onto the
parent's), outcomes are byte-identical, every request owns exactly one
root span, and timestamps stay causal (children inside their root's
interval) after alignment. A ``queue_full`` shed produces a complete
short trace carrying the denial cause.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import events
from repro.obs.trace import CAUSES
from repro.serve.engine import build_engine, outcomes_equal
from repro.serve.server import ServeServer, ServerConfig
from repro.serve.sharded import serve_stream_sharded

WORKER_COUNTS = (0, 1, 2, 4)


def _trace_tuples(records):
    """Worker-count-invariant view: trace-anchored events only (attrs,
    flight records included, compared as canonical JSON)."""
    out = set()
    for r in records:
        if "trace" not in r:
            continue
        attrs = json.dumps(r.get("attrs") or {}, sort_keys=True)
        out.add((r["trace"], r["path"], attrs))
    return out


@pytest.fixture(scope="module")
def replays(small_ephemeris, aligned_stream):
    """The same stream replayed at every worker count, timeline on."""
    runs = {}
    for n_workers in WORKER_COUNTS:
        rec = events.start(ring_size=65_536)
        try:
            outcomes = serve_stream_sharded(
                small_ephemeris, aligned_stream, n_workers=n_workers
            )
            runs[n_workers] = (outcomes, rec.records())
        finally:
            events.reset()
    return runs


def test_trace_tuples_invariant_across_worker_counts(replays, aligned_stream):
    serial_tuples = _trace_tuples(replays[0][1])
    assert len(serial_tuples) >= 3 * len(aligned_stream)
    for n_workers in WORKER_COUNTS[1:]:
        assert _trace_tuples(replays[n_workers][1]) == serial_tuples, (
            f"trace tuples diverged at n_workers={n_workers}"
        )


def test_outcomes_unchanged_by_timeline_and_workers(
    replays, small_ephemeris, aligned_stream
):
    # Timeline recording must not perturb outcomes...
    baseline = serve_stream_sharded(small_ephemeris, aligned_stream, n_workers=0)
    serial = replays[0][0]
    assert len(serial) == len(baseline)
    assert all(outcomes_equal(a, b) for a, b in zip(serial, baseline))
    # ...and neither may the worker count.
    for n_workers in WORKER_COUNTS[1:]:
        outcomes = replays[n_workers][0]
        assert len(outcomes) == len(serial)
        assert all(outcomes_equal(a, b) for a, b in zip(outcomes, serial))


def test_exactly_one_root_per_request(replays, aligned_stream):
    expected_ids = {f"req-{r.request_id}" for r in aligned_stream}
    for n_workers, (_, records) in replays.items():
        roots = [
            r for r in records if "trace" in r and r.get("parent") is None
        ]
        assert len(roots) == len(aligned_stream), f"n_workers={n_workers}"
        assert {r["trace"] for r in roots} == expected_ids
        for root in roots:
            assert root["name"] == "request"
            assert "tenant" in root["attrs"] and "served" in root["attrs"]


def test_roots_carry_the_flight_record(replays, aligned_stream):
    """The simulator's flight detail merges into the server's root; the
    server's outcome fields and the simulator's agree."""
    outcomes, records = replays[0]
    by_trace = {f"req-{o.request_id}": o for o in outcomes}
    roots = [r for r in records if "trace" in r and r.get("parent") is None]
    for root in roots:
        attrs = root["attrs"]
        outcome = by_trace[root["trace"]]
        assert (attrs["source"], attrs["destination"]) == (
            outcome.source, outcome.destination
        )
        assert attrs["t_s"] == outcome.t_s
        assert attrs["served"] == outcome.served
        if outcome.served:
            assert tuple(attrs["path"]) == outcome.path
            assert attrs["path_eta"] == outcome.path_eta
            assert attrs["fidelity"] == outcome.fidelity
            assert len(attrs["hop_etas"]) == len(outcome.path) - 1
            assert "cause" not in attrs
        else:
            assert attrs["cause"] == outcome.cause and attrs["cause"] in CAUSES
            assert attrs["candidate_counts"]["platforms"] > 0


def test_timestamps_causal_after_alignment(replays):
    for n_workers, (_, records) in replays.items():
        assert all(int(r["dur"]) >= 0 for r in records), f"n_workers={n_workers}"
        traces = {}
        for r in records:
            if "trace" in r:
                traces.setdefault(r["trace"], []).append(r)
        for trace_id, recs in traces.items():
            root = next(r for r in recs if r.get("parent") is None)
            t0, t1 = int(root["ts"]), int(root["ts"]) + int(root["dur"])
            for r in recs:
                assert t0 <= int(r["ts"]), (n_workers, trace_id)
                assert int(r["ts"]) + int(r["dur"]) <= t1, (n_workers, trace_id)
            # Each trace is recorded wholly in one process.
            assert len({r["shard"] for r in recs}) == 1


def test_worker_events_carry_shard_ids(replays):
    pooled_records = replays[2][1]
    shards = {r["shard"] for r in pooled_records if "trace" in r}
    assert len(shards) == 2
    assert 0 not in shards  # pooled traces are recorded in workers
    dispatches = [
        r for r in pooled_records if r["name"] == "dispatch" and "trace" not in r
    ]
    assert {r["attrs"]["shard"] for r in dispatches} == shards


def test_chrome_export_of_merged_timeline(replays):
    doc = events.to_chrome_trace(replays[4][1])
    span_events = [e for e in doc["traceEvents"] if e["cat"] == "span"]
    assert span_events
    open_spans = {}
    last_ts = {}
    for e in span_events:
        key = (e["pid"], e["tid"])
        assert e["ts"] >= last_ts.get(key, 0)
        last_ts[key] = e["ts"]
        stack = open_spans.setdefault(key, [])
        if e["ph"] == "B":
            stack.append(e["name"])
        else:
            assert stack and stack[-1] == e["name"]
            stack.pop()
    assert all(not stack for stack in open_spans.values())


@pytest.mark.asyncio
async def test_queue_full_shed_traces_are_complete(small_ephemeris, solo_stream):
    """A shed request still yields a complete (short) trace: its root
    closes immediately with the denial cause, no queue/serve children."""
    first, second, *_ = solo_stream
    engine = build_engine("cached", small_ephemeris)
    server = ServeServer(
        engine, config=ServerConfig(queue_depth=1, shed_on_full=True)
    )
    rec = events.start(ring_size=4096)
    try:
        # No consumer running yet: the first request fills the queue,
        # the second sheds deterministically.
        assert await server.submit(first) is None
        shed = await server.submit(second)
        assert shed is not None and shed.cause == "queue_full"
        server.start()
        await server.drain()
        records = rec.records()
    finally:
        events.reset()

    shed_trace = [r for r in records if r.get("trace") == f"req-{second.request_id}"]
    assert len(shed_trace) == 1  # root only — shed before any child span
    (root,) = shed_trace
    assert root.get("parent") is None
    assert root["attrs"]["served"] is False
    assert root["attrs"]["cause"] == "queue_full"
    assert root["attrs"]["tenant"] == second.tenant

    served_trace = [r for r in records if r.get("trace") == f"req-{first.request_id}"]
    names = {r["name"] for r in served_trace}
    assert {"request", "queue", "serve"} <= names


@pytest.mark.asyncio
async def test_shed_trace_shape_matches_serial_rerun(small_ephemeris, solo_stream):
    """Back-to-back shed runs in one process produce identical trace
    tuples — nothing leaks from the first recorder into the second."""
    first, second, *_ = solo_stream

    async def _run_once():
        engine = build_engine("cached", small_ephemeris)
        server = ServeServer(
            engine, config=ServerConfig(queue_depth=1, shed_on_full=True)
        )
        rec = events.start(ring_size=4096)
        try:
            await server.submit(first)
            await server.submit(second)
            server.start()
            await server.drain()
            return _trace_tuples(rec.records())
        finally:
            events.reset()

    assert await _run_once() == await _run_once()
    assert events.active() is None


@pytest.mark.parametrize("faulted", [False, True], ids=["healthy", "faulted"])
def test_server_and_simulator_causes_agree(
    small_ephemeris, aligned_stream, mixed_schedule, faulted
):
    """The server's cause (link-state gates on ``cached``) equals the
    cause the simulator's own flight record carries (the scalar cascade)
    for every denied request, with and without a fault plane."""
    faults = mixed_schedule if faulted else None
    outcomes = serve_stream_sharded(
        small_ephemeris, aligned_stream, n_workers=0, faults=faults
    )
    simulator = build_engine("cached", small_ephemeris, faults=faults).simulator
    rec = events.start(ring_size=65_536)
    try:
        for r in aligned_stream:
            simulator.serve_request(r.source, r.destination, r.t_s)
        flights = {
            root["trace"]: root["attrs"]
            for root in rec.records()
            if root["name"] == "request" and "trace" in root
        }
    finally:
        events.reset()
    denied = [o for o in outcomes if not o.served]
    assert denied
    for o in denied:
        flight = flights[f"{o.source}|{o.destination}|{o.t_s!r}"]
        assert flight["served"] is False
        assert flight["cause"] == o.cause
