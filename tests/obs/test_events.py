"""Unit tests for the causal timeline plane (:mod:`repro.obs.events`).

Covers the recorder lifecycle (ring / rotated-JSONL storage, sampling,
context-stack parenting), the shard merge protocol with monotonic-clock
alignment, the Chrome ``trace_event`` export, the ASCII tree renderer,
and the ``obs.reset`` leak guarantees the CLI relies on between
back-to-back runs in one process.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import ValidationError
from repro.obs import events
from repro.obs.export import to_prometheus_text
from repro.obs.metrics import Histogram


@pytest.fixture
def recorder():
    """Ring-mode recorder active for one test, always dropped after."""
    rec = events.start(ring_size=4096)
    try:
        yield rec
    finally:
        events.reset()


def _request_trace(rec, trace_id, *, tenant="tenant-0"):
    """Record one server-shaped trace: root + queue child + serve span."""
    handle = rec.trace_begin(trace_id, "request", attrs={"tenant": tenant})
    handle.child_complete("queue", begin_us=handle.t0_us)
    with handle.scope():
        with obs.span("serve"):
            with obs.span("admission"):
                pass
    handle.end(attrs={"served": True})
    return handle


# --- recorder basics -----------------------------------------------------------


def test_trace_records_have_context(recorder):
    _request_trace(recorder, "req-0")
    records = recorder.records()
    assert [r["name"] for r in records] == ["queue", "admission", "serve", "request"]
    assert all(r["trace"] == "req-0" for r in records)
    assert all(r["ph"] == "X" for r in records)
    by_name = {r["name"]: r for r in records}
    root = by_name["request"]
    assert "parent" not in root
    assert by_name["queue"]["parent"] == root["span"]
    assert by_name["serve"]["parent"] == root["span"]
    assert by_name["admission"]["parent"] == by_name["serve"]["span"]
    assert root["attrs"] == {"tenant": "tenant-0", "served": True}
    # Span ids are a dense per-trace sequence.
    assert sorted(r["span"] for r in records) == [1, 2, 3, 4]


def test_timestamps_are_causal(recorder):
    _request_trace(recorder, "req-0")
    by_name = {r["name"]: r for r in recorder.records()}
    root = by_name["request"]
    for r in by_name.values():
        assert r["dur"] >= 0
        assert r["ts"] >= root["ts"]
        assert r["ts"] + r["dur"] <= root["ts"] + root["dur"]
    serve = by_name["serve"]
    inner = by_name["admission"]
    assert serve["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= serve["ts"] + serve["dur"]


def test_spans_without_context_are_process_scope(recorder):
    with obs.span("advance"):
        pass
    (record,) = recorder.records()
    assert "trace" not in record and "parent" not in record
    assert record["shard"] == 0


def test_cache_fill_spans_stay_process_scope(recorder):
    """PROCESS_SCOPE_SPANS members never anchor to the enclosing trace —
    the property that makes trace tuples worker-count invariant."""
    handle = recorder.trace_begin("req-0", "request")
    with handle.scope():
        with obs.span("route"):
            pass
    handle.end()
    by_name = {r["name"]: r for r in recorder.records()}
    assert "trace" not in by_name["route"]
    assert by_name["request"]["trace"] == "req-0"


def test_trace_ids_restart_per_trace(recorder):
    _request_trace(recorder, "req-0")
    _request_trace(recorder, "req-1")
    for trace_id in ("req-0", "req-1"):
        spans = [r["span"] for r in recorder.records() if r["trace"] == trace_id]
        assert sorted(spans) == [1, 2, 3, 4]


def test_summary_counts_and_slowest(recorder):
    for i in range(3):
        _request_trace(recorder, f"req-{i}")
    summary = recorder.summary()
    assert summary["events"] == 12
    assert summary["traces"] == 3
    assert summary["open_traces"] == 0
    assert summary["spans"]["serve"] == 3
    slowest = summary["slowest"]
    assert len(slowest) == 3
    assert [e["dur_us"] for e in slowest] == sorted(
        (e["dur_us"] for e in slowest), reverse=True
    )
    entry = slowest[0]
    assert entry["trace"].startswith("req-")
    assert {s["path"] for s in entry["spans"]} == {"queue", "serve", "serve/admission"}
    assert all(s["off_us"] >= 0 for s in entry["spans"])


def test_slowest_is_bounded():
    rec = events.start(ring_size=4096, n_slowest=2)
    try:
        for i in range(5):
            _request_trace(rec, f"req-{i}")
        assert len(rec.summary()["slowest"]) == 2
    finally:
        events.reset()


# --- sampling ------------------------------------------------------------------


def test_zero_sample_rate_suppresses_subtree():
    rec = events.start(ring_size=4096, sample_rate=0.0)
    try:
        handle = _request_trace(rec, "req-0")
        assert not handle.sampled
        assert rec.records() == []
        assert rec.n_events == 0
    finally:
        events.reset()


def test_sampling_is_deterministic_per_trace():
    decisions = []
    for _ in range(2):
        rec = events.start(ring_size=4096, sample_rate=0.5, seed=7)
        try:
            decisions.append([rec.sampled(f"req-{i}") for i in range(64)])
        finally:
            events.reset()
    assert decisions[0] == decisions[1]
    assert any(decisions[0]) and not all(decisions[0])


def test_invalid_config_rejected():
    with pytest.raises(ValidationError):
        events.EventConfig(sample_rate=1.5)
    with pytest.raises(ValidationError):
        events.EventConfig(ring_size=0)
    with pytest.raises(ValidationError):
        events.EventConfig(max_records_per_file=0)
    # Sizes must be integers: no fractions, no bools.
    for field, value in (
        ("ring_size", 2.5),
        ("max_records_per_file", 2.5),
        ("n_slowest", 1.5),
        ("ring_size", True),
        ("n_slowest", False),
        ("seed", 3.0),
    ):
        with pytest.raises(ValidationError, match=field):
            events.EventConfig(**{field: value})


# --- file output and rotation --------------------------------------------------


def test_jsonl_rotation_and_read_events(tmp_path):
    path = tmp_path / "events.jsonl"
    rec = events.start(path, max_records_per_file=5)
    try:
        for i in range(4):
            _request_trace(rec, f"req-{i}")
        rec.flush()
        assert len(rec.paths) == 4
        assert rec.paths[0] == path
        assert rec.paths[1].name == "events.jsonl.1"
    finally:
        events.stop()
    records = list(events.read_events(path))
    assert len(records) == 16
    assert {r["trace"] for r in records} == {f"req-{i}" for i in range(4)}


def test_ring_mode_is_bounded():
    rec = events.start(ring_size=8)
    try:
        for i in range(10):
            _request_trace(rec, f"req-{i}")
        records = rec.records()
        assert len(records) == 8
        assert rec.n_events == 40  # analytics keep counting past the ring
    finally:
        events.reset()


# --- lifecycle: start/stop/reset/detach ---------------------------------------


def test_stop_returns_summary_and_deactivates(tmp_path):
    rec = events.start(tmp_path / "events.jsonl")
    _request_trace(rec, "req-0")
    summary = events.stop()
    assert summary["traces"] == 1
    assert events.active() is None
    assert events.stop() is None


def test_obs_reset_drops_recorder_and_exemplars():
    """Satellite regression: back-to-back CLI runs in one process must
    not leak events or exemplars from the previous run."""
    rec = events.start(ring_size=64)
    hist = obs.registry().histogram("test_events_latency", buckets=(0.1, 1.0))
    obs.enable()
    hist.observe_with_exemplar(0.05, "req-0")
    assert events.active() is rec
    assert hist.exemplars
    obs.reset()
    try:
        # Still enabled, so a fresh aggregate-only recorder (no records,
        # empty profile) replaces the dropped one.
        fresh = events.active()
        assert fresh is not rec and not fresh.keeps_records
        assert fresh.span_profile() == {}
        assert not hist.exemplars
        assert hist.count == 0
    finally:
        obs.disable()
        obs.reset()


def test_detach_attach_survives_obs_reset():
    rec = events.start(ring_size=64)
    _request_trace(rec, "req-0")
    kept = events.detach()
    obs.reset()  # would close/drop an attached recorder
    events.attach(kept)
    try:
        assert events.active() is rec
        assert rec.n_events == 4
    finally:
        events.reset()


# --- shard merge protocol ------------------------------------------------------


def test_shard_config_none_when_off():
    assert events.active() is None
    assert events.shard_config(0) is None


def test_shard_roundtrip_ring(recorder):
    cfg = events.shard_config(12)
    assert cfg["shard"] == 13
    assert cfg["path"] is None

    # Worker side, simulated in-process with an explicit recorder.
    parent = events.detach()
    shard_rec = events.start_shard(cfg)
    _request_trace(shard_rec, "req-12")
    payload = events.finish_shard()
    events.attach(parent)

    assert payload["shard"] == 13
    assert len(payload["records"]) == 4
    events.absorb_shard(payload)
    merged = [r for r in recorder.records() if r.get("trace") == "req-12"]
    assert len(merged) == 4
    assert all(r["shard"] == 13 for r in merged)
    assert recorder.n_traces == 1


def test_shard_file_payload_absorbed_and_unlinked(tmp_path):
    path = tmp_path / "events.jsonl"
    rec = events.start(path)
    try:
        cfg = events.shard_config(0)
        shard_path = tmp_path / "events.jsonl.shard-000000"
        assert cfg["path"] == str(shard_path)

        parent = events.detach()
        shard_rec = events.start_shard(cfg)
        _request_trace(shard_rec, "req-0")
        payload = events.finish_shard()
        events.attach(parent)

        assert shard_path.exists()
        events.absorb_shard(payload)
        assert not shard_path.exists()  # consumed into the parent stream
        rec.flush()
    finally:
        events.stop()
    records = list(events.read_events(path))
    assert {r["trace"] for r in records} == {"req-0"}
    assert all(r["shard"] == 1 for r in records)


def test_absorb_aligns_shard_clock(recorder):
    """A shard whose monotonic origin differs wildly from the parent's
    lands on the parent timeline via one constant offset — intra-trace
    intervals survive exactly."""
    shard_rec = events.shard_recorder(events.shard_config(4))
    # Forge a worker clock: monotonic origin 5 s behind the parent's,
    # wall origin identical (same host, different process start).
    shard_rec.mono_origin_us = recorder.mono_origin_us - 5_000_000
    shard_rec.wall_origin_unix_s = recorder.wall_origin_unix_s
    shard_rec.complete(
        "queue", trace_id="req-4", parent_id=2, begin_us=1_000, end_us=1_250
    )
    shard_rec.complete("request", trace_id="req-4", begin_us=1_000, end_us=9_000)
    payload = events.shard_payload(shard_rec)

    events.absorb_shard(payload)
    merged = {r["name"]: r for r in recorder.records()}
    offset = 5_000_000
    assert merged["queue"]["ts"] == 1_000 + offset
    assert merged["request"]["ts"] == 1_000 + offset
    assert merged["queue"]["dur"] == 250  # durations are never rescaled
    assert (
        merged["queue"]["ts"] - merged["request"]["ts"] == 0
    )  # intra-trace offsets preserved


def test_absorb_none_payload_is_noop(recorder):
    events.absorb_shard(None)
    assert recorder.n_events == 0


# --- Chrome trace export -------------------------------------------------------


def _chrome(recorder):
    return events.to_chrome_trace(recorder.records())


def test_chrome_trace_has_matched_begin_end(recorder):
    for i in range(3):
        _request_trace(recorder, f"req-{i}")
    doc = _chrome(recorder)
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["schema"] == events.EVENT_SCHEMA_VERSION
    span_events = [e for e in doc["traceEvents"] if e["cat"] == "span"]
    assert all(
        {"ph", "name", "ts", "pid", "tid", "args"} <= set(e) for e in span_events
    )
    # Every B has a matching E per (pid, tid, name), properly nested.
    depth: dict[tuple[int, int], list[str]] = {}
    for e in span_events:
        key = (e["pid"], e["tid"])
        stack = depth.setdefault(key, [])
        if e["ph"] == "B":
            stack.append(e["name"])
        else:
            assert e["ph"] == "E"
            assert stack and stack[-1] == e["name"], "unbalanced begin/end"
            stack.pop()
    assert all(not stack for stack in depth.values())


def test_chrome_trace_timestamps_monotone_per_track(recorder):
    for i in range(3):
        _request_trace(recorder, f"req-{i}")
    doc = _chrome(recorder)
    last: dict[tuple[int, int], int] = {}
    for e in doc["traceEvents"]:
        key = (e["pid"], e["tid"])
        assert e["ts"] >= last.get(key, 0)
        last[key] = e["ts"]


def test_chrome_trace_flow_events(recorder):
    _request_trace(recorder, "req-0")
    # A parent-side dispatch span plus one worker-shard record makes the
    # cross-process flow arrow.
    recorder.complete(
        "dispatch", begin_us=0, end_us=10, attrs={"shard": 3}
    )
    shard_rec = events.shard_recorder(events.shard_config(2))
    shard_rec.mono_origin_us = recorder.mono_origin_us
    shard_rec.wall_origin_unix_s = recorder.wall_origin_unix_s
    shard_rec.complete("request", trace_id="req-2", begin_us=100, end_us=200)
    events.absorb_shard(events.shard_payload(shard_rec))

    doc = _chrome(recorder)
    flows = [e for e in doc["traceEvents"] if e["cat"] == "flow"]
    by_name = {}
    for e in flows:
        by_name.setdefault(e["name"], []).append(e["ph"])
    assert sorted(by_name["submit->serve"]) == ["f", "s"]
    assert sorted(by_name["dispatch->shard"]) == ["f", "s"]
    finish = next(e for e in flows if e["ph"] == "f" and e["name"] == "dispatch->shard")
    assert finish["pid"] == 3 and finish["bp"] == "e"


def test_chrome_trace_zero_duration_span_begins_before_it_ends():
    doc = events.to_chrome_trace(
        [{"ph": "X", "name": "root", "ts": 5, "dur": 0, "span": 1, "shard": 0,
          "trace": "req-1"}]
    )
    assert [e["ph"] for e in doc["traceEvents"]] == ["B", "E"]


def test_chrome_trace_zero_duration_spans_nest_at_shared_timestamps():
    records = [
        {"ph": "X", "name": "outer", "ts": 10, "dur": 5, "span": 1, "shard": 0},
        {"ph": "X", "name": "a", "ts": 10, "dur": 0, "span": 2, "shard": 0},
        {"ph": "X", "name": "b", "ts": 10, "dur": 0, "span": 3, "shard": 0},
        {"ph": "X", "name": "c", "ts": 15, "dur": 0, "span": 4, "shard": 0},
    ]
    doc = events.to_chrome_trace(records)
    seq = [(e["ph"], e["name"]) for e in doc["traceEvents"]]
    stack = []
    for ph, name in seq:
        if ph == "B":
            stack.append(name)
        else:
            assert stack and stack[-1] == name, seq
            stack.pop()
    assert not stack
    assert seq[:5] == [("B", "outer"), ("B", "a"), ("E", "a"), ("B", "b"), ("E", "b")]


def test_trace_tracks_never_collide_on_digit_runs():
    tid = events._trace_tid
    assert tid("req-0") == 1 and tid("req-41") == 42
    assert tid("ornl-1|epb-12|40") != tid("ornl-1|epb-1|240")
    assert tid("ornl-1|epb-12|40") == tid("ornl-1|epb-12|40")


def test_chrome_trace_json_serializable(recorder):
    _request_trace(recorder, "req-0")
    doc = _chrome(recorder)
    assert json.loads(json.dumps(doc)) == doc


# --- ASCII tree renderer -------------------------------------------------------


def test_render_tree_nests_and_notes_process_scope(recorder):
    _request_trace(recorder, "req-0")
    with obs.span("advance"):
        pass
    text = events.render_tree(recorder.records())
    lines = text.splitlines()
    assert lines[0].startswith("req-0 ")
    assert "(shard 0)" in lines[0]
    assert any("queue" in line and "├─" in line or "└─" in line for line in lines)
    serve_i = next(i for i, l in enumerate(lines) if "─ serve " in l)
    assert "serve/admission" in lines[serve_i + 1]
    assert lines[-1] == "(1 process-scope events not shown per trace)"


def test_render_tree_limit_keeps_slowest(recorder):
    for i in range(4):
        _request_trace(recorder, f"req-{i}")
    durs = {
        r["trace"]: r["dur"]
        for r in recorder.records()
        if r["name"] == "request"
    }
    slowest = max(durs, key=lambda t: (durs[t], t))
    text = events.render_tree(recorder.records(), limit=1)
    assert slowest in text
    assert sum(1 for line in text.splitlines() if line.startswith("req-")) == 1


def test_render_tree_empty():
    assert events.render_tree([]) == "(no trace events)"


# --- exemplar exposition -------------------------------------------------------


def test_prometheus_bucket_lines_carry_exemplars():
    obs.reset()
    obs.enable()
    try:
        hist = obs.registry().histogram(
            "test_events_exemplar_latency", buckets=(0.1, 1.0)
        )
        assert isinstance(hist, Histogram)
        hist.observe_with_exemplar(0.05, "req-3")
        hist.observe_with_exemplar(0.5, "req-7")
        text = to_prometheus_text()
        lines = [
            l
            for l in text.splitlines()
            if l.startswith("repro_test_events_exemplar_latency_bucket")
        ]
        assert any('# {trace_id="req-3"} 0.05' in l for l in lines)
        assert any('# {trace_id="req-7"} 0.5' in l for l in lines)
    finally:
        obs.disable()
        obs.reset()
