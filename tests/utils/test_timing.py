"""Unit tests for the stopwatch (now living in repro.obs.spans)."""

import pytest

from repro.obs import Stopwatch


class TestStopwatch:
    def test_lap_records_elapsed(self):
        sw = Stopwatch()
        with sw.lap("work"):
            pass
        assert sw.totals()["work"] >= 0.0
        assert sw.counts()["work"] == 1

    def test_manual_record_accumulates(self):
        sw = Stopwatch()
        sw.record("a", 1.0)
        sw.record("a", 2.0)
        assert sw.totals()["a"] == 3.0
        assert sw.counts()["a"] == 2

    def test_summary_sorted_by_total(self):
        sw = Stopwatch()
        sw.record("small", 0.1)
        sw.record("big", 5.0)
        lines = sw.summary().splitlines()
        assert lines[0].startswith("big")

    def test_nested_laps(self):
        sw = Stopwatch()
        with sw.lap("outer"):
            with sw.lap("inner"):
                pass
        assert set(sw.totals()) == {"outer", "inner"}

    def test_lap_records_on_exception(self):
        sw = Stopwatch()
        with pytest.raises(RuntimeError):
            with sw.lap("doomed"):
                raise RuntimeError("boom")
        assert sw.counts()["doomed"] == 1
        assert sw.totals()["doomed"] >= 0.0

    def test_lap_reentry_accumulates(self):
        sw = Stopwatch()
        for _ in range(3):
            with sw.lap("again"):
                pass
        assert sw.counts()["again"] == 3

    def test_same_lap_object_reusable_sequentially(self):
        sw = Stopwatch()
        lap = sw.lap("reused")
        with lap:
            pass
        with lap:
            pass
        assert sw.counts()["reused"] == 2

    def test_shim_exports_obs_stopwatch(self):
        from repro.obs.spans import Stopwatch as ObsStopwatch

        assert Stopwatch is ObsStopwatch
