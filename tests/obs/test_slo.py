"""SLO tracking: spec validation, burn-rate math, alert transitions.

All tests drive the live-metrics clock with a fake and feed the
windowed instruments directly, so every burn rate below is an exact
hand-computable number.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro import obs
from repro.errors import ValidationError
from repro.obs import live
from repro.obs.slo import (
    MAX_SNAPSHOTS,
    AlertState,
    SLOSpec,
    SLOTracker,
    load_slo_spec,
)


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def clock(telemetry):
    fake = FakeClock()
    previous = live.set_clock(fake)
    try:
        yield fake
    finally:
        live.set_clock(previous)


def make_tracker(spec: SLOSpec, tag: str) -> tuple[SLOTracker, dict]:
    """A tracker over fresh windowed instruments (unique per test)."""
    instruments = {
        "submitted": live.windowed_counter(f"t.slo.{tag}.submitted", 120.0),
        "served": live.windowed_counter(f"t.slo.{tag}.served", 120.0),
        "denied": live.windowed_counter(f"t.slo.{tag}.denied", 120.0),
        "shed": live.windowed_counter(f"t.slo.{tag}.shed", 120.0),
        "latency": live.windowed_histogram(f"t.slo.{tag}.latency", 120.0),
    }
    return SLOTracker(spec, **instruments), instruments


class TestSLOSpec:
    def test_defaults_valid(self):
        spec = SLOSpec()
        assert spec.served_fraction_target == 0.95
        assert spec.short_window_s < spec.long_window_s

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"served_fraction_target": 0.0},
            {"served_fraction_target": 1.0},
            {"p99_latency_bound_s": 0.0},
            {"queue_full_budget": 1.5},
            {"short_window_s": 60.0, "long_window_s": 5.0},
            {"warning_burn": 10.0, "critical_burn": 2.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SLOSpec(**kwargs)

    @pytest.mark.parametrize(
        "data",
        [
            {"served_fraction_target": "0.9"},
            {"served_fraction_target": True},
            {"short_window_s": None},
            {"p99_latency_bound_s": "1"},
            {"queue_full_budget": [0.1]},
            {"warning_burn": [1]},
        ],
    )
    def test_wrong_json_types_rejected(self, data):
        with pytest.raises(ValidationError):
            SLOSpec.from_dict(data)

    def test_round_trips_through_dict(self):
        spec = SLOSpec(p99_latency_bound_s=0.05, queue_full_budget=0.1)
        assert SLOSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError):
            SLOSpec.from_dict({"nope": 1})

    def test_load_slo_spec(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"served_fraction_target": 0.8}))
        assert load_slo_spec(path).served_fraction_target == 0.8
        with pytest.raises(ValidationError):
            load_slo_spec(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(ValidationError):
            load_slo_spec(bad)


class TestBurnRates:
    def test_availability_burn_exact(self, clock):
        # Budget = 1 - 0.95 = 0.05; serve 90 of 100 -> error rate 0.1,
        # burn = 0.1 / 0.05 = 2.0 on both windows.
        tracker, inst = make_tracker(SLOSpec(served_fraction_target=0.95), "avail")
        inst["served"].inc(90)
        inst["denied"].inc(10)
        statuses = tracker.evaluate()
        availability = statuses["availability"]
        assert availability.burn_short == pytest.approx(2.0)
        assert availability.burn_long == pytest.approx(2.0)
        # burn == warning threshold is NOT a breach (strictly greater).
        assert availability.state is AlertState.OK

    def test_objectives_follow_spec(self, clock):
        tracker, _ = make_tracker(SLOSpec(), "only-avail")
        assert tracker.objectives == ("availability",)
        tracker2, _ = make_tracker(
            SLOSpec(p99_latency_bound_s=0.05, queue_full_budget=0.1), "all"
        )
        assert tracker2.objectives == ("availability", "latency", "saturation")

    def test_idle_service_burns_nothing(self, clock):
        tracker, _ = make_tracker(
            SLOSpec(p99_latency_bound_s=0.01, queue_full_budget=0.1), "idle"
        )
        for status in tracker.evaluate().values():
            assert status.burn_short == 0.0
            assert status.state is AlertState.OK

    def test_latency_burn(self, clock):
        # 10 % of samples above the bound against a 1 % budget -> burn 10.
        tracker, inst = make_tracker(SLOSpec(p99_latency_bound_s=0.1), "lat")
        for _ in range(90):
            inst["latency"].observe(0.01)
        for _ in range(10):
            inst["latency"].observe(0.5)
        status = tracker.evaluate()["latency"]
        assert status.burn_long == pytest.approx(10.0)
        assert status.state is AlertState.WARNING  # 10 is not > critical 10

    def test_saturation_burn(self, clock):
        tracker, inst = make_tracker(SLOSpec(queue_full_budget=0.1), "sat")
        inst["submitted"].inc(100)
        inst["shed"].inc(50)
        status = tracker.evaluate()["saturation"]
        assert status.burn_long == pytest.approx(5.0)
        assert status.state is AlertState.WARNING

    def test_short_window_filters_recovered_incident(self, clock):
        # An outage entirely older than the short window: the long
        # window still burns, but min(short, long) stays calm.
        spec = SLOSpec(short_window_s=5.0, long_window_s=60.0)
        tracker, inst = make_tracker(spec, "recover")
        inst["denied"].inc(100)  # total outage at t=1000
        clock.advance(30.0)
        inst["served"].inc(100)  # healthy burst at t=1030
        clock.advance(2.0)
        status = tracker.evaluate()["availability"]
        assert status.burn_long > spec.warning_burn  # long window saw it
        assert status.burn_short == 0.0
        assert status.state is AlertState.OK


class TestTransitions:
    def test_escalation_and_recovery_recorded(self, clock, caplog):
        spec = SLOSpec(short_window_s=5.0, long_window_s=60.0)
        tracker, inst = make_tracker(spec, "trans")
        with caplog.at_level(logging.INFO, logger="repro.obs.slo"):
            inst["denied"].inc(100)
            assert tracker.evaluate()["availability"].state is AlertState.CRITICAL
            clock.advance(61.0)  # incident ages out of both windows
            inst["served"].inc(10)
            assert tracker.evaluate()["availability"].state is AlertState.OK
        kinds = [(e["from"], e["to"]) for e in tracker.transitions]
        assert kinds == [("ok", "critical"), ("critical", "ok")]
        # Structured JSON log line per transition, level mapped to severity.
        payloads = [json.loads(r.message) for r in caplog.records]
        assert [p["event"] for p in payloads] == ["slo_transition"] * 2
        levels = [r.levelno for r in caplog.records]
        assert levels == [logging.ERROR, logging.INFO]

    def test_state_gauges_exported(self, clock):
        tracker, inst = make_tracker(SLOSpec(), "gauges")
        inst["denied"].inc(100)
        tracker.evaluate()
        assert obs.gauge("slo.availability.state").value == AlertState.CRITICAL.severity
        assert obs.gauge("slo.availability.burn_rate").value == pytest.approx(20.0)

    def test_no_transition_when_state_holds(self, clock):
        tracker, inst = make_tracker(SLOSpec(), "steady")
        inst["served"].inc(100)
        tracker.evaluate()
        tracker.evaluate()
        assert tracker.transitions == []


class TestSnapshotsAndSummary:
    def test_snapshot_points(self, clock):
        tracker, inst = make_tracker(SLOSpec(), "snap")
        inst["served"].inc(60)
        inst["latency"].observe(0.02)
        point = tracker.snapshot()
        assert point["t"] == clock.t
        assert point["served_rate_per_s"] == pytest.approx(1.0)
        assert point["latency_p99_s"] == pytest.approx(0.02)
        assert point["objectives"]["availability"]["state"] == "ok"
        assert tracker.snapshots == [point]

    def test_snapshot_p99_nan_becomes_null(self, clock):
        tracker, _ = make_tracker(SLOSpec(), "nan")
        point = tracker.snapshot()
        assert point["latency_p99_s"] is None
        json.dumps(point)  # strict-JSON safe

    def test_snapshot_retention_cap(self, clock):
        tracker, _ = make_tracker(SLOSpec(), "cap")
        for _ in range(MAX_SNAPSHOTS + 1):
            tracker.snapshot()
            clock.advance(0.01)
        assert len(tracker.snapshots) <= MAX_SNAPSHOTS

    def test_manifest_summary_shape(self, clock):
        tracker, inst = make_tracker(SLOSpec(), "manifest")
        inst["denied"].inc(100)
        tracker.snapshot()
        summary = tracker.manifest_summary()
        assert summary["spec"]["served_fraction_target"] == 0.95
        assert summary["final_states"] == {"availability": "critical"}
        assert len(summary["transitions"]) == 1
        assert len(summary["snapshots"]) == 1
        json.dumps(summary)

    def test_status_shape(self, clock):
        tracker, _ = make_tracker(SLOSpec(), "status")
        status = tracker.status()
        assert "spec" in status and "objectives" in status
        json.dumps(status)


class TestWiring:
    def test_rejects_short_instruments(self, clock):
        short = live.windowed_counter("t.slo.short", window_s=5.0)
        ok = live.windowed_counter("t.slo.ok120", window_s=120.0)
        hist = live.windowed_histogram("t.slo.okh120", window_s=120.0)
        with pytest.raises(ValidationError):
            SLOTracker(
                SLOSpec(long_window_s=60.0),
                submitted=short,
                served=ok,
                denied=ok,
                shed=ok,
                latency=hist,
            )

    def test_serve_instruments_satisfy_default_spec(self, clock):
        # ServeServer.slo_tracker wires the module-level serve.live.*
        # instruments; their ring must span the default long window or
        # the factory would raise at build time.
        from repro.serve import server as server_mod

        assert server_mod.LIVE_WINDOW_S >= SLOSpec().long_window_s
