"""The ``repro top`` dashboard: pure renderer tests plus the poll loop.

:func:`render_dashboard` is a pure function of one ``/status`` payload,
so the layout pins without a server; the loop tests drive
:func:`run_top` against a live :class:`ObservabilityServer` through the
real urllib fetch path.
"""

from __future__ import annotations

import asyncio
import io

import pytest

from repro.errors import ValidationError
from repro.serve import ObservabilityServer, ServeServer, build_engine
from repro.serve.top import fetch_status, render_dashboard, run_top

STATUS = {
    "engine": "cached",
    "uptime_s": 12.5,
    "time_cursor_s": 4200.0,
    "cursor_advances": 37,
    "window_s": 60.0,
    "faults_active": 2,
    "counts": {"submitted": 100, "served": 80, "denied": 15, "shed": 5, "cancelled": 0},
    "rates_per_s": {"submitted": 10.0, "served": 8.0, "denied": 1.5, "shed": 0.5},
    "latency_s": {"p50": 0.0012, "p99": 0.0051, "mean": 0.0015, "window_count": 93},
    "queues": {"tenant-0": 3, "tenant-1": 0},
    "max_queue_depth": 7,
    "denial_causes": {"low_elevation": 12, "queue_full": 5},
    "denial_rates_per_s": {"low_elevation": 1.2},
    "slo": {
        "objectives": {
            "availability": {
                "state": "warning",
                "burn_short": 4.0,
                "burn_long": 3.0,
                "budget": 0.05,
            }
        }
    },
}


class TestRenderDashboard:
    def test_one_screen_layout(self):
        frame = render_dashboard(STATUS, url="http://x/status")
        assert "repro top - http://x/status" in frame
        assert "engine cached | window full" in frame
        assert "submitted 100  served 80  denied 15  shed 5" in frame
        assert "80.00 % of completed" in frame
        assert "rates (last 60 s)" in frame
        assert "p50 1.200 ms" in frame and "p99 5.100 ms" in frame
        assert "tenant-0" in frame and "tenant-1" in frame
        assert "low_elevation" in frame and "1.2/s" in frame
        assert "[WARN] availability" in frame
        assert "faults 2" in frame

    def test_empty_status_renders(self):
        frame = render_dashboard({})
        assert "repro top" in frame
        assert "0.00 % of completed" in frame

    def test_no_optional_sections_when_absent(self):
        frame = render_dashboard(
            {"counts": {"submitted": 1}, "rates_per_s": {}, "latency_s": {}}
        )
        assert "tenant queues" not in frame
        assert "denial causes" not in frame
        assert "slo" not in frame

    def test_nan_latency_renders_dash(self):
        frame = render_dashboard({"latency_s": {"p50": float("nan")}})
        assert "p50 -" in frame

    def test_served_bar_clamps(self):
        # A corrupt payload (served > completed) must not crash the bar.
        frame = render_dashboard(
            {"counts": {"submitted": 1, "served": 10, "denied": 0, "shed": 0}}
        )
        assert "100.00 %" in frame


class TestFetchStatus:
    def test_rejects_non_http_urls(self):
        with pytest.raises(ValidationError):
            fetch_status("file:///etc/passwd")

    def test_connection_refused_is_validation_error(self):
        with pytest.raises(ValidationError):
            fetch_status("http://127.0.0.1:1/status", timeout_s=0.5)


class TestRunTop:
    def test_first_poll_failure_exits_1(self):
        out = io.StringIO()
        code = run_top(
            "http://127.0.0.1:1/status", interval_s=0.01, iterations=1, stream=out
        )
        assert code == 1

    @pytest.mark.asyncio
    async def test_renders_live_server(self, small_ephemeris, telemetry):
        server = ServeServer(build_engine("cached", small_ephemeris))
        http = await ObservabilityServer(server).start()
        try:
            url = f"http://127.0.0.1:{http.port}/status"
            out = io.StringIO()
            # run_top blocks; one frame against the live endpoint. The
            # urllib fetch happens in a worker thread so the asyncio
            # listener on this loop can answer it.
            code = await asyncio.to_thread(
                run_top, url, interval_s=0.01, iterations=1, stream=out, clear=False
            )
            assert code == 0
            frame = out.getvalue()
            assert "engine cached" in frame
            assert "submitted 0" in frame
        finally:
            await http.close()

    @pytest.mark.asyncio
    async def test_clear_codes_emitted_when_enabled(self, small_ephemeris, telemetry):
        server = ServeServer(build_engine("cached", small_ephemeris))
        http = await ObservabilityServer(server).start()
        try:
            url = f"http://127.0.0.1:{http.port}/status"
            out = io.StringIO()
            await asyncio.to_thread(
                run_top, url, interval_s=0.01, iterations=1, stream=out, clear=True
            )
            assert out.getvalue().startswith("\x1b[2J\x1b[H")
        finally:
            await http.close()
