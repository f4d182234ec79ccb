"""``repro top`` — a curses-free live dashboard over ``/status``.

Polls the JSON ``/status`` endpoint of a running service
(:mod:`repro.serve.http`) and redraws one terminal screen per poll using
plain ANSI clear codes — no curses, no dependencies, works in any
terminal and degrades to sequential frames when piped to a file.

The renderer (:func:`render_dashboard`) is a pure function of one
status dict, so tests pin the screen layout without a server; the poll
loop (:func:`run_top`) owns the fetching, clearing, and Ctrl-C exit.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Mapping

from repro.errors import ValidationError

__all__ = ["fetch_status", "render_dashboard", "run_top"]

#: ANSI: clear screen, cursor home.
_CLEAR = "\x1b[2J\x1b[H"

_STATE_BADGES = {"ok": "OK", "warning": "WARN", "critical": "CRIT"}


def fetch_status(url: str, *, timeout_s: float = 5.0) -> dict[str, Any]:
    """GET ``url`` and parse the JSON ``/status`` body."""
    if not url.startswith(("http://", "https://")):
        raise ValidationError(f"status URL must be http(s), got {url!r}")
    try:
        with urllib.request.urlopen(url, timeout=timeout_s) as response:
            body = response.read()
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise ValidationError(f"cannot fetch {url}: {exc}") from exc
    try:
        data = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{url} did not return JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{url} did not return a JSON object")
    return data


def _fmt_s(value: Any) -> str:
    if value is None:
        return "-"
    return f"{float(value):.4g}"


def _fmt_ms(value: Any) -> str:
    if value is None or value != value:
        return "-"
    return f"{1e3 * float(value):.3f} ms"


def _bar(fraction: float, width: int = 24) -> str:
    fraction = max(0.0, min(1.0, fraction))
    filled = round(fraction * width)
    return "#" * filled + "." * (width - filled)


def render_dashboard(status: Mapping[str, Any], *, url: str = "") -> str:
    """One dashboard frame for a ``/status`` payload."""
    counts = status.get("counts") or {}
    rates = status.get("rates_per_s") or {}
    latency = status.get("latency_s") or {}
    lines: list[str] = []

    header = "repro top"
    if url:
        header += f" - {url}"
    lines.append(header)
    lines.append("=" * max(len(header), 60))
    fill = status.get("window")
    engine_cursor = status.get("engine_cursor") or {}
    t_index = engine_cursor.get("t_index")
    lines.append(
        f"engine {status.get('engine', '?')} | "
        f"window {fill if fill is not None else 'full'} | "
        f"uptime {_fmt_s(status.get('uptime_s'))} s | "
        f"cursor {_fmt_s(status.get('time_cursor_s'))} s"
        + (f" @ sample {t_index}" if t_index is not None else "")
        + f" ({status.get('cursor_advances', 0)} advances) | "
        f"faults {status.get('faults_active', 0)}"
    )
    lines.append("")

    submitted = counts.get("submitted", 0) or 0
    served = counts.get("served", 0) or 0
    completed = served + (counts.get("denied", 0) or 0) + (counts.get("shed", 0) or 0)
    served_frac = served / completed if completed else 0.0
    lines.append(
        f"requests  submitted {submitted}  served {served}  "
        f"denied {counts.get('denied', 0)}  shed {counts.get('shed', 0)}  "
        f"cancelled {counts.get('cancelled', 0)}"
    )
    lines.append(
        f"served    [{_bar(served_frac)}] {100 * served_frac:6.2f} % of completed"
    )
    window = status.get("window_s")
    suffix = f" (last {window:g} s)" if isinstance(window, (int, float)) else ""
    lines.append(
        f"rates{suffix}  submit {_fmt_s(rates.get('submitted'))}/s  "
        f"serve {_fmt_s(rates.get('served'))}/s  "
        f"deny {_fmt_s(rates.get('denied'))}/s  "
        f"shed {_fmt_s(rates.get('shed'))}/s"
    )
    exemplar = latency.get("exemplar")
    exemplar_txt = (
        f"  worst {_fmt_ms(exemplar.get('value'))} ({exemplar.get('trace_id')})"
        if isinstance(exemplar, Mapping)
        else ""
    )
    lines.append(
        f"latency   p50 {_fmt_ms(latency.get('p50'))}  "
        f"p99 {_fmt_ms(latency.get('p99'))}  "
        f"mean {_fmt_ms(latency.get('mean'))}  "
        f"n {latency.get('window_count', 0)}"
        + exemplar_txt
    )
    lines.append("")

    queues = status.get("queues") or {}
    if queues:
        lines.append("tenant queues")
        peak = max(1, status.get("max_queue_depth") or 1)
        for tenant, depth in sorted(queues.items()):
            lines.append(
                f"  {tenant:<16} {depth:>6}  [{_bar(depth / peak, 16)}]"
            )
        lines.append("")

    causes = status.get("denial_causes") or {}
    if causes:
        cause_rates = status.get("denial_rates_per_s") or {}
        lines.append("denial causes")
        for cause, count in sorted(causes.items(), key=lambda kv: -kv[1]):
            rate = cause_rates.get(cause)
            rate_txt = f"  {_fmt_s(rate)}/s" if rate is not None else ""
            lines.append(f"  {cause:<24} {count:>8}{rate_txt}")
        lines.append("")

    slo = status.get("slo")
    if isinstance(slo, Mapping):
        lines.append("slo")
        for name, objective in sorted((slo.get("objectives") or {}).items()):
            badge = _STATE_BADGES.get(objective.get("state", "ok"), "?")
            lines.append(
                f"  [{badge:>4}] {name:<14} "
                f"burn {_fmt_s(objective.get('burn_short'))} (short) / "
                f"{_fmt_s(objective.get('burn_long'))} (long)  "
                f"budget {_fmt_s(objective.get('budget'))}"
            )
        lines.append("")

    return "\n".join(lines)


def run_top(
    url: str,
    *,
    interval_s: float = 2.0,
    iterations: int = 0,
    stream=None,
    clear: bool = True,
) -> int:
    """Poll ``url`` and redraw the dashboard until stopped.

    Args:
        url: the service's ``/status`` endpoint.
        interval_s: seconds between polls.
        iterations: stop after this many frames (0 = until Ctrl-C or the
            endpoint disappears).
        stream: output stream (default stdout).
        clear: ANSI-clear between frames (off for captured output).

    Returns a process exit code: 0 on clean exit (including the server
    going away *after* at least one successful frame — a finished run is
    not an error), 1 when the very first poll fails.
    """
    out = stream if stream is not None else sys.stdout
    frames = 0
    try:
        while True:
            try:
                status = fetch_status(url)
            except ValidationError as exc:
                if frames == 0:
                    print(f"repro top: {exc}", file=sys.stderr)
                    return 1
                print(f"\nrepro top: service gone ({exc})", file=out)
                return 0
            if clear:
                out.write(_CLEAR)
            print(render_dashboard(status, url=url), file=out)
            out.flush()
            frames += 1
            if iterations and frames >= iterations:
                return 0
            time.sleep(interval_s)
    except KeyboardInterrupt:
        print("", file=out)
        return 0
