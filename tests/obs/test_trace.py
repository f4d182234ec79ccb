"""Tests for per-request flight records in the one event stream (DESIGN.md §10).

A flight record is the attrs of a request's root ``request`` event; the
cause taxonomy lives in :mod:`repro.obs.trace`, everything else in
:mod:`repro.obs.events`.
"""

from __future__ import annotations

import json
import zlib

import pytest

from repro.errors import ValidationError
from repro.obs import events
from repro.obs.events import MAX_CANDIDATES, EventConfig, EventRecorder, read_events
from repro.obs.trace import CAUSES, DenialCause, classify_denial


@pytest.fixture(autouse=True)
def _no_active_recorder():
    """Keep the process-global recorder isolated per test."""
    events.reset_for_worker()
    yield
    events.reset_for_worker()


def _request(rec, trace_id, **attrs):
    """Emit one flight record with no trace scope (a zero-duration root)."""
    attrs.setdefault("t_s", 0.0)
    attrs.setdefault("source", "a")
    attrs.setdefault("destination", "b")
    rec.record_request(trace_id, attrs)


def _coverage(rec, n, *, connected=lambda i: i % 2 == 0, horizon_s=600.0):
    for i in range(n):
        rec.record_coverage(
            t_s=60.0 * i, t_index=i, connected=connected(i), horizon_s=horizon_s
        )


class TestClassifyDenial:
    def test_cascade_order(self):
        assert classify_denial(False, False, False) is DenialCause.NO_VISIBLE_SATELLITE
        assert classify_denial(True, False, False) is DenialCause.LOW_ELEVATION
        assert classify_denial(True, True, False) is DenialCause.LOW_TRANSMISSIVITY
        assert classify_denial(True, True, True) is DenialCause.NO_ROUTE

    def test_causes_tuple_matches_enum(self):
        assert CAUSES == tuple(c.value for c in DenialCause)


class TestConfigValidation:
    def test_sample_rate_bounds(self):
        with pytest.raises(ValidationError):
            EventConfig(sample_rate=1.5)
        with pytest.raises(ValidationError):
            EventConfig(sample_rate=-0.1)

    def test_positive_sizes(self):
        with pytest.raises(ValidationError):
            EventConfig(max_records_per_file=0)
        with pytest.raises(ValidationError):
            EventConfig(ring_size=0)


class TestRecordValidation:
    def test_served_with_cause_rejected(self):
        rec = EventRecorder()
        with pytest.raises(ValidationError):
            _request(rec, "r", served=True, cause=DenialCause.NO_ROUTE.value)

    def test_denied_without_cause_rejected(self):
        rec = EventRecorder()
        with pytest.raises(ValidationError):
            _request(rec, "r", served=False)

    def test_non_canonical_cause_rejected(self):
        rec = EventRecorder()
        with pytest.raises(ValidationError):
            _request(rec, "r", served=False, cause="bad_luck")

    def test_unknown_record_kind_rejected(self):
        # The old "cancelled" pseudo-cause is not canonical either: an
        # abandoned request is marked cancelled, never given a cause.
        rec = EventRecorder()
        with pytest.raises(ValidationError):
            _request(rec, "r", served=False, cause="cancelled")
        _request(rec, "r", served=False, cancelled=True)
        assert rec.summary()["requests"]["cancelled"] == 1
        assert rec.summary()["requests"]["total"] == 0


class TestFileRotation:
    def test_rotates_and_reads_back_in_order(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        rec = EventRecorder(EventConfig(path=out, max_records_per_file=3))
        _coverage(rec, 8)
        rec.close()
        assert [p.name for p in rec.paths] == [
            "trace.jsonl", "trace.jsonl.1", "trace.jsonl.2",
        ]
        records = list(read_events(out))
        assert [r["attrs"]["t_index"] for r in records] == list(range(8))
        assert all(r["name"] == "coverage" and "trace" not in r for r in records)

    def test_records_are_single_line_json(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        rec = EventRecorder(EventConfig(path=out))
        _request(
            rec, "a|b|30.0", t_s=30.0, served=False,
            cause=DenialCause.LOW_ELEVATION.value,
            candidates=[{"platform": "sat-0", "visible": True}],
            candidate_counts={"platforms": 6, "visible": 1},
        )
        rec.close()
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["trace"] == "a|b|30.0" and record["dur"] == 0
        assert record["attrs"]["cause"] == "low_elevation"
        assert record["attrs"]["candidate_counts"] == {"platforms": 6, "visible": 1}

    def test_candidate_detail_capped(self, sat_analysis_small, monkeypatch):
        assert MAX_CANDIDATES == 12
        monkeypatch.setattr(events, "MAX_CANDIDATES", 1)
        details = [
            sat_analysis_small.request_detail("ornl-1", "epb-1", t)
            for t in range(0, 120, 2)
        ]
        crowded = [d for d in details if d["candidate_counts"]["visible"] > 1]
        assert crowded, "expected samples with several visible candidates"
        # Counts stay exact; detail stops at the cap.
        assert all(len(d["candidates"]) == 1 for d in crowded)


class TestRingMode:
    def test_memory_bounded_but_analytics_exact(self):
        rec = EventRecorder(EventConfig(ring_size=4))
        for i in range(10):
            _request(
                rec, f"a|b|{i}", t_s=float(i), served=i % 2 == 0,
                **({} if i % 2 == 0 else {"cause": "no_visible_satellite"}),
            )
        assert len(rec.records()) == 4  # ring keeps only the newest
        assert rec.n_requests == 10  # analytics keep counting
        assert rec.n_served == 5
        assert rec.cause_counts["no_visible_satellite"] == 5


class TestSampling:
    def test_rate_one_records_everything(self):
        rec = EventRecorder(EventConfig(sample_rate=1.0))
        assert all(rec.request_scope(f"a|b|{k!r}") for k in range(100))

    def test_rate_zero_records_nothing(self):
        rec = EventRecorder(EventConfig(sample_rate=0.0))
        assert not any(rec.request_scope(f"a|b|{k!r}") for k in range(100))

    def test_deterministic_and_independent_of_order(self):
        rec1 = EventRecorder(EventConfig(sample_rate=0.4, seed=3))
        rec2 = EventRecorder(EventConfig(sample_rate=0.4, seed=3))
        keys = list(range(200))
        picked1 = [k for k in keys if rec1.request_scope(f"ornl|epb|{k!r}")]
        picked2 = [k for k in reversed(keys) if rec2.request_scope(f"ornl|epb|{k!r}")]
        assert picked1 == sorted(picked2)
        assert 0 < len(picked1) < len(keys)
        # The sampling token is f"{seed}|{src}|{dst}|{key!r}" byte for byte.
        assert picked1 == [
            k for k in keys if zlib.crc32(f"3|ornl|epb|{k!r}".encode()) / 2**32 < 0.4
        ]

    def test_seed_changes_the_sample(self):
        a = EventRecorder(EventConfig(sample_rate=0.3, seed=0))
        b = EventRecorder(EventConfig(sample_rate=0.3, seed=99))
        keys = [f"x|y|{k!r}" for k in range(300)]
        assert [a.sampled(k) for k in keys] != [b.sampled(k) for k in keys]


class TestSummaryAnalytics:
    def _populated(self):
        rec = EventRecorder()
        _request(
            rec, "h1|h2|0", t_index=0, source="h1", destination="h2", served=True,
            source_lan="ornl", destination_lan="epb",
            path=["h1", "sat-3", "h2"], hop_etas=[0.8, 0.9], path_eta=0.72,
            fidelity=0.95,
        )
        _request(
            rec, "h3|h4|0", t_index=0, source="h3", destination="h4", served=False,
            source_lan="epb", destination_lan="ornl", cause="low_elevation",
        )
        _request(
            rec, "h1|h2|1", t_s=30.0, t_index=1, source="h1", destination="h2",
            served=False, source_lan="ornl", destination_lan="epb",
            cause="no_visible_satellite",
        )
        return rec

    def test_counts_and_cause_breakdown(self):
        summary = self._populated().summary()
        req = summary["requests"]
        assert req["total"] == 3 and req["served"] == 1 and req["denied"] == 2
        assert req["served_pct"] == pytest.approx(100.0 / 3.0)
        assert req["mean_fidelity"] == pytest.approx(0.95)
        assert req["causes"]["low_elevation"] == 1
        assert req["causes"]["no_visible_satellite"] == 1
        assert req["causes"]["no_route"] == 0
        assert summary["traces"] == 3

    def test_lan_pairs_are_order_insensitive(self):
        summary = self._populated().summary()
        pairs = summary["requests"]["by_lan_pair"]
        assert set(pairs) == {"epb<->ornl"}  # both directions fold together
        assert pairs["epb<->ornl"]["total"] == 3
        assert pairs["epb<->ornl"]["served"] == 1
        assert pairs["epb<->ornl"]["low_elevation"] == 1

    def test_satellite_utilization(self):
        summary = self._populated().summary()
        assert summary["satellites"]["utilization"] == {"sat-3": 1}

    def test_step_accounting(self):
        summary = self._populated().summary()
        steps = summary["steps"]
        assert steps["evaluated"] == 2
        assert steps["fully_denied"] == 1  # t_index 1: 0/1 served
        assert steps["worst_served_fraction"] == 0.0

    def test_coverage_summary_matches_core_coverage(self):
        import numpy as np

        from repro.core.coverage import coverage_from_mask

        times = np.arange(0.0, 600.0, 60.0)
        mask = np.array([False, True, True, False, False, True, False, True, True, False])
        rec = EventRecorder()
        _coverage(rec, 10, connected=lambda i: bool(mask[i]))
        cov = rec.coverage_summary()
        expected = coverage_from_mask(times, mask, n_satellites=1, horizon_s=600.0)
        assert cov["percentage"] == expected.percentage
        assert cov["covered_s"] == pytest.approx(expected.total_minutes * 60.0)
        assert cov["outages"][0] == [0.0, 60.0]
        assert cov["longest_outage_s"] == pytest.approx(120.0)
        assert rec.summary()["requests"]["total"] == 0  # coverage is not a request


class TestShardProtocol:
    def _shard_roundtrip(self, parent_cfg, tmp_path):
        events.start(config=parent_cfg)
        cfg = events.shard_config(first_index=7)
        assert cfg is not None
        # Simulate the worker side in-process but against a detached
        # recorder, exactly like a pool worker would after fork.
        shard = events.shard_recorder(cfg)
        _request(
            shard, "a|b|7", t_s=210.0, t_index=7, served=False,
            source_lan="ornl", destination_lan="epb", cause="low_transmissivity",
        )
        shard.record_coverage(t_s=210.0, t_index=7, connected=True, horizon_s=600.0)
        payload = events.shard_payload(shard)
        events.absorb_shard(payload)
        summary = events.stop()
        assert summary["requests"]["total"] == 1
        assert summary["requests"]["causes"]["low_transmissivity"] == 1
        assert summary["coverage"]["connected_samples"] == 1
        return cfg

    def test_file_backed_shard_merges_and_cleans_up(self, tmp_path):
        base = tmp_path / "trace.jsonl"
        cfg = self._shard_roundtrip(EventConfig(path=base), tmp_path)
        assert cfg["path"].endswith(".shard-000007")
        # parent stream holds the absorbed records; shard file deleted
        names = [r["name"] for r in read_events(base)]
        assert names == ["request", "coverage"]
        assert list(tmp_path.glob("*.shard-*")) == []

    def test_ring_backed_shard_ships_records_in_payload(self, tmp_path):
        cfg = self._shard_roundtrip(EventConfig(path=None), tmp_path)
        assert cfg["path"] is None

    def test_shard_config_none_when_tracing_off(self):
        assert events.shard_config(first_index=0) is None

    def test_absorb_shard_tolerates_none(self):
        events.absorb_shard(None)  # recording off / worker had no recorder

    def test_shard_sampling_matches_parent(self):
        parent = events.start(sample_rate=0.35, seed=11)
        shard = events.shard_recorder(events.shard_config(first_index=0))
        keys = [f"a|b|{k!r}" for k in range(500)]
        assert [parent.sampled(k) for k in keys] == [shard.sampled(k) for k in keys]
        events.stop()


class TestLifecycle:
    def test_start_stop_round_trip(self, tmp_path):
        rec = events.start(tmp_path / "t.jsonl", sample_rate=0.5)
        assert events.active() is rec
        summary = events.stop()
        assert events.active() is None
        assert summary["sample_rate"] == 0.5

    def test_recording_context_manager(self):
        with events.recording() as rec:
            assert events.active() is rec
        assert events.active() is None

    def test_reset_for_worker_detaches_without_closing(self, tmp_path):
        rec = events.start(tmp_path / "t.jsonl")
        rec.record_coverage(t_s=0.0, t_index=0, connected=True, horizon_s=60.0)
        events.reset_for_worker()
        assert events.active() is None
        rec.record_coverage(t_s=60.0, t_index=1, connected=False, horizon_s=60.0)
        rec.close()
        assert len(list(read_events(tmp_path / "t.jsonl"))) == 2


class TestRequestScope:
    def test_flight_detail_merges_into_open_root(self):
        rec = EventRecorder()
        handle = rec.trace_begin("req-3", "request", attrs={"tenant": "t0"})
        with handle.scope():
            flight = rec.request_scope("a|b|0.0")
            assert flight == "req-3"
            rec.record_request(flight, {"served": False, "cause": "no_route"})
        assert rec.records() == []  # nothing written until the root ends
        handle.end(attrs={"served": False, "cause": "no_route"})
        (root,) = rec.records()
        assert root["trace"] == "req-3"
        assert root["attrs"] == {"tenant": "t0", "served": False, "cause": "no_route"}
        assert rec.cause_counts["no_route"] == 1

    def test_suppressed_scope_records_nothing(self):
        rec = EventRecorder(EventConfig(sample_rate=0.0))
        handle = rec.trace_begin("req-3", "request")
        with handle.scope():
            assert rec.request_scope("a|b|0.0") is None
