"""Windowed (live) instruments: determinism, expiry, exact quantiles.

Every test drives the module clock of :mod:`repro.obs.live` with a fake,
so rates, windows, and quantiles are bit-reproducible — the contract
that makes the SLO burn-rate tests and the live-vs-offline acceptance
check meaningful.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.obs import live, metrics


class FakeClock:
    """A monotonic clock the test advances explicitly."""

    def __init__(self, start: float = 1000.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def clock(telemetry):
    """Install a fake live-metrics clock for one (telemetry-on) test."""
    fake = FakeClock()
    previous = live.set_clock(fake)
    try:
        yield fake
    finally:
        live.set_clock(previous)


class TestWindowedCounter:
    def test_rate_and_total_deterministic(self, clock):
        c = live.windowed_counter("t.live.counter", window_s=10.0, bucket_s=1.0)
        for _ in range(20):
            c.inc()
            clock.advance(0.5)
        # 10 s elapsed; all 20 events inside the 10 s window.
        assert c.total() == 20.0
        assert c.rate() == pytest.approx(2.0)
        assert c.all_time.value == 20.0

    def test_old_events_expire(self, clock):
        c = live.windowed_counter("t.live.expire", window_s=10.0, bucket_s=1.0)
        c.inc(5)
        clock.advance(11.0)
        assert c.total() == 0.0
        assert c.rate() == 0.0
        assert c.all_time.value == 5.0  # cumulative never expires

    def test_sub_window_query(self, clock):
        c = live.windowed_counter("t.live.sub", window_s=60.0, bucket_s=1.0)
        c.inc(30)  # t = 1000
        clock.advance(30.0)
        c.inc(10)  # t = 1030
        clock.advance(2.0)  # t = 1032
        assert c.total() == 40.0
        # Only the recent burst is inside the short window.
        assert c.total(window_s=5.0) == 10.0
        assert c.rate(window_s=5.0) == pytest.approx(2.0)

    def test_sub_window_clamped_to_ring(self, clock):
        c = live.windowed_counter("t.live.clamp", window_s=10.0, bucket_s=1.0)
        c.inc(4)
        assert c.total(window_s=999.0) == 4.0
        assert c.rate(window_s=999.0) == pytest.approx(0.4)

    def test_disabled_records_nothing(self, clock, telemetry):
        c = live.windowed_counter("t.live.off", window_s=10.0)
        telemetry.disable()
        c.inc(7)
        telemetry.enable()
        assert c.total() == 0.0
        assert c.all_time.value == 0.0

    def test_ring_reuse_after_full_wrap(self, clock):
        c = live.windowed_counter("t.live.wrap", window_s=4.0, bucket_s=1.0)
        for i in range(12):
            c.inc(1)
            clock.advance(1.0)
        # Only the last 4 one-per-second events are inside the window.
        assert c.total() == 4.0
        assert c.all_time.value == 12.0


class TestWindowedGauge:
    def test_last_min_max(self, clock):
        g = live.windowed_gauge("t.live.gauge", window_s=10.0, bucket_s=1.0)
        for v in (3.0, 9.0, 1.0, 5.0):
            g.set(v)
            clock.advance(1.0)
        assert g.last() == 5.0
        assert g.window_min() == 1.0
        assert g.window_max() == 9.0

    def test_window_extrema_expire_last_does_not(self, clock):
        g = live.windowed_gauge("t.live.gexp", window_s=5.0, bucket_s=1.0)
        g.set(100.0)
        clock.advance(3.0)
        g.set(2.0)
        clock.advance(3.0)  # the 100.0 bucket is now outside the window
        assert g.window_max() == 2.0
        assert g.last() == 2.0

    def test_empty_gauge_is_nan(self, clock):
        g = live.windowed_gauge("t.live.gempty", window_s=5.0)
        assert g.last() != g.last()
        assert g.window_min() != g.window_min()


class TestWindowedHistogram:
    def test_exact_quantiles_match_numpy(self, clock):
        h = live.windowed_histogram("t.live.hist", window_s=30.0, bucket_s=1.0)
        rng = np.random.default_rng(42)
        samples = rng.exponential(scale=0.01, size=500)
        for s in samples:
            h.observe(float(s))
            clock.advance(30.0 / len(samples))  # all stay inside the window
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(
                float(np.quantile(samples, q)), abs=1e-12
            )
        assert h.mean() == pytest.approx(float(samples.mean()), abs=1e-12)
        assert h.count() == 500

    def test_windowed_quantile_drops_expired_samples(self, clock):
        h = live.windowed_histogram("t.live.hexp", window_s=10.0, bucket_s=1.0)
        h.observe(1000.0)  # ancient outlier
        clock.advance(11.0)
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.quantile(1.0) == 3.0
        assert h.count() == 3
        assert h.all_time.count == 4

    def test_sub_window_quantile(self, clock):
        h = live.windowed_histogram("t.live.hsub", window_s=60.0, bucket_s=1.0)
        h.observe(50.0)
        clock.advance(30.0)
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        full = sorted([50.0, 1.0, 2.0, 3.0, 4.0])
        assert h.quantile(0.5) == float(np.quantile(full, 0.5))
        assert h.quantile(0.5, window_s=5.0) == 2.5

    def test_fraction_above(self, clock):
        h = live.windowed_histogram("t.live.hfrac", window_s=10.0)
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.fraction_above(2.0) == 0.5
        assert h.fraction_above(100.0) == 0.0
        # Empty window: no traffic is no burn, not NaN.
        clock.advance(11.0)
        assert h.fraction_above(0.0) == 0.0

    def test_quantile_validates_q(self, clock):
        h = live.windowed_histogram("t.live.hval", window_s=10.0)
        with pytest.raises(ValidationError):
            h.quantile(1.5)


class TestClockAndRegistry:
    def test_set_clock_returns_previous(self):
        fake = FakeClock(5.0)
        previous = live.set_clock(fake)
        try:
            assert live.now() == 5.0
            fake.advance(1.0)
            assert live.now() == 6.0
        finally:
            assert live.set_clock(previous) is fake

    def test_ring_validation(self):
        reg = metrics.MetricsRegistry()
        with pytest.raises(ValidationError):
            live.WindowedCounter("bad", reg, window_s=0.0)
        with pytest.raises(ValidationError):
            live.WindowedCounter("bad", reg, window_s=1.0, bucket_s=2.0)

    def test_get_or_create_is_idempotent(self, clock):
        a = live.windowed_counter("t.live.same", window_s=10.0)
        b = live.windowed_counter("t.live.same", window_s=10.0)
        assert a is b

    def test_obs_reset_clears_windowed_values(self, clock, telemetry):
        c = live.windowed_counter("t.live.reset", window_s=10.0)
        c.inc(3)
        telemetry.reset()
        telemetry.enable()
        assert c.total() == 0.0
        assert c.all_time.value == 0.0

    def test_snapshot_shapes(self, clock):
        c = live.windowed_counter("t.live.snapc", window_s=10.0)
        g = live.windowed_gauge("t.live.snapg", window_s=10.0)
        h = live.windowed_histogram("t.live.snaph", window_s=10.0)
        c.inc(2)
        g.set(4.0)
        h.observe(0.5)
        snap = metrics.registry().snapshot()
        assert snap["t.live.snapc"]["type"] == "windowed_counter"
        assert snap["t.live.snapc"]["total"] == 2.0
        assert snap["t.live.snapg"]["type"] == "windowed_gauge"
        assert snap["t.live.snapg"]["last"] == 4.0
        assert snap["t.live.snaph"]["type"] == "windowed_histogram"
        assert snap["t.live.snaph"]["p50"] == 0.5

    def test_delta_and_merge_skip_windowed(self, clock):
        c = live.windowed_counter("t.live.skip", window_s=10.0)
        plain = metrics.registry().counter("t.live.plainc")
        c.inc(5)
        plain.inc(2)
        before = metrics.registry().snapshot()
        plain.inc(1)
        c.inc(1)
        delta = metrics.metrics_delta(metrics.registry().snapshot(), before)
        assert "t.live.skip" not in delta
        assert delta["t.live.plainc"]["value"] == 1.0
        # Merging a snapshot that contains windowed entries must not
        # touch the local windowed instrument.
        metrics.registry().merge(before)
        assert c.total() == 6.0


class TestAllTimeView:
    """One instrument per series: the windowed instrument's all-time
    state is the registry entry under the series' cumulative name."""

    def test_counter_feeds_both_names(self, clock):
        c = live.windowed_counter(
            "t.live.both", window_s=10.0, total_name="t.total.both"
        )
        reg = metrics.registry()
        assert reg.counter("t.total.both") is c.all_time
        c.inc(3)
        clock.advance(20.0)  # the ring expires, the all-time count does not
        snap = reg.snapshot()
        assert snap["t.total.both"] == {"type": "counter", "value": 3.0}
        assert snap["t.live.both"]["total"] == 0.0
        assert snap["t.live.both"]["cumulative"] == 3.0

    def test_all_time_view_crosses_processes(self, clock):
        c = live.windowed_counter(
            "t.live.shipped", window_s=10.0, total_name="t.total.shipped"
        )
        reg = metrics.registry()
        before = reg.snapshot()
        c.inc(2)
        delta = metrics.metrics_delta(reg.snapshot(), before)
        assert delta["t.total.shipped"] == {"type": "counter", "value": 2.0}
        assert "t.live.shipped" not in delta
        reg.merge(delta)  # a parent folding a worker's delta
        assert c.all_time.value == 4.0
        assert c.total() == 2.0  # the ring stays process-local

    def test_histogram_keeps_bounds_and_bucket_exemplars(self, clock):
        h = live.windowed_histogram(
            "t.live.lat", window_s=10.0, total_name="t.total.lat", buckets=(0.1, 1.0)
        )
        total = metrics.registry().histogram("t.total.lat")
        assert total is h.all_time and total.bounds == (0.1, 1.0)
        h.observe(0.05)
        h.observe_with_exemplar(0.5, "req-1")
        h.observe_with_exemplar(2.0, "req-2")
        assert total.bucket_counts == [1, 1, 1]
        assert (total.count, total.min, total.max) == (3, 0.05, 2.0)
        assert total.sum == pytest.approx(2.55)
        assert total.exemplars == {1: (0.5, "req-1"), 2: (2.0, "req-2")}
        assert h.exemplar() == {"value": 2.0, "trace_id": "req-2"}

    def test_gauge_last_value(self, clock):
        g = live.windowed_gauge("t.live.g", window_s=10.0, total_name="t.total.g")
        g.set(7.0)
        assert metrics.registry().snapshot()["t.total.g"] == {
            "type": "gauge",
            "value": 7.0,
        }

    def test_forced_plane_records_the_all_time_view(self, telemetry):
        c = live.windowed_counter(
            "t.live.forcedtotal", window_s=10.0, total_name="t.total.forced"
        )
        telemetry.disable()
        previous = live.force(True)
        try:
            c.inc()
            assert metrics.registry().counter("t.total.forced").value == 1.0
        finally:
            live.force(previous)


class TestLiveVsOfflineEquivalence:
    """The acceptance contract: a window covering the whole run yields
    the exact offline aggregates."""

    def test_replayed_request_stream(self, clock):
        h = live.windowed_histogram("t.live.accept", window_s=120.0, bucket_s=1.0)
        c = live.windowed_counter("t.live.acceptc", window_s=120.0, bucket_s=1.0)
        rng = np.random.default_rng(7)
        latencies = []
        # A bursty 100 s "run": irregular arrival gaps, lognormal service.
        for gap in rng.exponential(0.1, size=400):
            clock.advance(float(gap))
            value = float(rng.lognormal(mean=-6.0, sigma=1.0))
            h.observe(value)
            c.inc()
            latencies.append(value)
        offline = np.asarray(latencies)
        assert h.count() == offline.size
        assert c.total() == offline.size
        for q in (0.5, 0.9, 0.99):
            assert h.quantile(q) == pytest.approx(
                float(np.quantile(offline, q)), abs=1e-12
            )
        assert h.mean() == pytest.approx(float(offline.mean()), abs=1e-12)


class TestForcedLivePlane:
    """`live.force` — the standalone switch behind `repro serve --http-port`."""

    def test_records_while_registry_disabled(self, telemetry):
        telemetry.disable()
        previous = live.force(True)
        try:
            c = live.windowed_counter("t.live.forced", window_s=10.0)
            h = live.windowed_histogram("t.live.forcedh", window_s=10.0)
            g = live.windowed_gauge("t.live.forcedg", window_s=10.0)
            c.inc(3)
            h.observe(0.5)
            g.set(2.0)
            assert c.total() == 3.0
            assert h.count() == 1
            assert g.last() == 2.0
            # The plain cumulative instruments stay off.
            plain = metrics.registry().counter("t.live.forced.plain")
            plain.inc()
            assert plain.value == 0.0
        finally:
            live.force(previous)

    def test_force_returns_previous_and_restores(self, telemetry):
        assert live.force(True) is False
        assert live.force(False) is True
        assert not live.forced()

    def test_reset_clears_force(self, telemetry):
        live.force(True)
        telemetry.reset()
        assert not live.forced()

    def test_gauge_counts_writes(self, clock):
        g = live.windowed_gauge("t.live.gwrites", window_s=10.0)
        for v in (1.0, 2.0, 3.0):
            g.set(v)
        assert g.cumulative_n == 3
        assert g.snapshot()["cumulative_n"] == 3
        g.reset_values()
        assert g.cumulative_n == 0
