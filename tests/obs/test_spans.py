"""Unit tests for tracing spans and the span profile the recorder folds."""

import pytest

from repro import obs
from repro.obs import events
from repro.obs.manifest import run_manifest

from tests.conftest import grid_stream


def _counts() -> dict[str, int]:
    return {path: s["count"] for path, s in events.span_profile().items()}


class TestSpan:
    def test_disabled_span_records_nothing(self):
        obs.reset()
        assert events.active() is None
        with obs.span("ghost"):
            pass
        assert events.span_profile() == {}

    def test_span_records_wall_time(self, telemetry):
        with obs.span("phase"):
            pass
        stats = events.span_profile()["phase"]
        assert stats["count"] == 1
        assert stats["total_s"] >= 0.0
        assert stats["max_s"] >= stats["total_s"] / stats["count"]

    def test_nesting_builds_slash_paths(self, telemetry):
        with obs.span("sweep"):
            with obs.span("propagate"):
                pass
            with obs.span("serve"):
                pass
        assert {"sweep", "sweep/propagate", "sweep/serve"} <= set(_counts())

    def test_exception_still_records_and_pops(self, telemetry):
        with pytest.raises(RuntimeError):
            with obs.span("outer"):
                with obs.span("doomed"):
                    raise RuntimeError("boom")
        counts = _counts()
        assert counts["outer/doomed"] == 1
        assert counts["outer"] == 1
        # The stack unwound fully: a new span is top-level again.
        with obs.span("after"):
            pass
        assert "after" in _counts()

    def test_reentry_aggregates_under_one_key(self, telemetry):
        for _ in range(4):
            with obs.span("loop"):
                pass
        assert _counts()["loop"] == 4


class TestAggregateOnlyRecorder:
    """Telemetry without recording: the profile and nothing else."""

    def test_enable_activates_and_disable_drops_it(self, telemetry):
        rec = events.active()
        assert rec is not None and not rec.keeps_records
        telemetry.disable()
        assert events.active() is None
        telemetry.enable()
        assert events.active() is not None

    def test_keeps_no_records_and_no_trace_digest(self, telemetry):
        rec = events.active()
        with obs.span("quiet"):
            handle = rec.trace_begin("req-1", "request")
            with handle.scope():
                with obs.span("serve"):
                    pass
            handle.end()
        rec.record_coverage(t_s=0.0, t_index=0, connected=True, horizon_s=1.0)
        assert not handle.sampled
        assert rec.records() == [] and rec.n_events == 0
        assert rec.request_scope("a|b|0.0") is None
        manifest = run_manifest(command="t")
        assert "trace" not in manifest
        assert set(manifest["profile"]) == {"quiet", "quiet/serve"}


class TestRecordingRecorder:
    def test_unsampled_activations_still_count(self, telemetry, tmp_path):
        rec = events.start(tmp_path / "t.jsonl", sample_rate=0.0)
        try:
            handle = rec.trace_begin("req-1", "request")
            with handle.scope():
                with obs.span("serve"):
                    pass
            handle.end()
            assert rec.n_events == 0
            assert _counts() == {"serve": 1}
        finally:
            events.stop()

    def test_trace_scope_keeps_the_enclosing_path(self, telemetry):
        rec = events.start()
        try:
            with obs.span("stream"):
                handle = rec.trace_begin("req-1", "request")
                with handle.scope():
                    with obs.span("serve"):
                        pass
                handle.end()
            serve = [r for r in rec.records() if r["name"] == "serve"]
            assert serve[0]["path"] == "stream/serve"
            assert serve[0]["trace"] == "req-1"
            assert _counts() == {"stream": 1, "stream/serve": 1}
        finally:
            events.stop()


class TestProfile:
    """The recorder's span aggregate in its JSON form."""

    def test_merge_accumulates(self):
        rec = events.EventRecorder(keep_records=False)
        rec.merge_profile({"p": {"count": 1, "total_s": 1.0, "max_s": 1.0}})
        rec.merge_profile(
            {
                "p": {"count": 1, "total_s": 2.0, "max_s": 2.0},
                "q": {"count": 1, "total_s": 0.5, "max_s": 0.5},
            }
        )
        profile = rec.span_profile()
        assert profile["p"]["count"] == 2
        assert profile["p"]["total_s"] == pytest.approx(3.0)
        assert profile["p"]["max_s"] == pytest.approx(2.0)
        assert profile["q"]["count"] == 1

    def test_as_dict_round_trip(self):
        rec = events.EventRecorder(keep_records=False)
        rec.span_stats["x"] = [2, 0.75, 0.5]
        profile = rec.span_profile()
        assert profile == {"x": {"count": 2, "total_s": 0.75, "max_s": 0.5}}
        copy = events.EventRecorder(keep_records=False)
        copy.merge_profile(profile)
        assert copy.span_profile() == profile

    def test_reset_clears(self, telemetry):
        with obs.span("before"):
            pass
        telemetry.reset()  # still enabled: a fresh, empty aggregate
        with obs.span("after"):
            pass
        assert _counts() == {"after": 1}


class TestShardedProfile:
    """Pooled shards ship their span aggregates back to the parent."""

    PROBES = [("ttu-0", "ornl-10"), ("ttu-3", "ornl-0"), ("epb-0", "ttu-1")]

    def _profile_counts(self, ephemeris, n_workers):
        from repro.serve import serve_stream_sharded

        obs.reset()
        stream = grid_stream(ephemeris, self.PROBES, [0, 12, 13, 14, 60])
        serve_stream_sharded(ephemeris, stream, n_workers=n_workers, n_shards=2)
        return _counts()

    def test_pooled_profile_equals_in_process(self, small_ephemeris, telemetry):
        in_process = self._profile_counts(small_ephemeris, 0)
        pooled = self._profile_counts(small_ephemeris, 2)
        assert in_process["serve"] == 15
        assert pooled == in_process
