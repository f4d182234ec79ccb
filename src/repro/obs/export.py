"""Exporters: Prometheus text format and the CLI profile table.

The Prometheus dump follows the text exposition format: metric names are
sanitised (dots become underscores, a ``repro_`` prefix added), counters
get a ``_total`` suffix, and histograms expose cumulative ``le`` buckets
plus ``_sum``/``_count`` series — so the registry can be scraped or
diffed with standard tooling without a client-library dependency.

Windowed instruments (:mod:`repro.obs.live`) export as derived gauges
carrying a ``window`` label: a windowed counter contributes
``<name>_rate_per_s{window="60"}`` and ``<name>_window_total``, a
windowed histogram ``_p50``/``_p99``/``_window_count``/``_rate_per_s``,
a windowed gauge its ``last``/``min``/``max``. The cumulative totals the
windowed instruments also track ride along as plain counters, so a
scraper sees both the rolling and the monotonic view of one series; a
windowed instrument given a cumulative name (``serve.requests.*``,
``serve.latency_s``, ...) also exposes its all-time view under that
name, read from the same instrument.

Histogram buckets that retained a latency exemplar
(:meth:`~repro.obs.metrics.Histogram.observe_with_exemplar`) carry it in
OpenMetrics exemplar syntax — ``... # {trace_id="req-17"} 0.0042`` — so
a scraper that understands exemplars can jump from an aggregate bucket
straight to the concrete slow trace in the timeline plane; plain
text-format parsers that split on ``#`` comments remain compatible.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

from repro.obs.events import span_profile
from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import registry as _default_registry

__all__ = ["escape_label_value", "to_prometheus_text", "render_profile_table"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash first (so the escapes introduced for quotes and newlines
    are not themselves re-escaped), then double quotes and newlines.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    """Prometheus number formatting (integers without trailing .0; NaN
    for empty windows)."""
    if value != value:
        return "NaN"
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _windowed_lines(prom: str, metric: dict) -> list[str]:
    """Derived-gauge series for one windowed instrument snapshot."""
    window = escape_label_value(_fmt(metric["window_s"]))
    lines: list[str] = []

    def gauge(suffix: str, value: float) -> None:
        lines.append(f"# TYPE {prom}{suffix} gauge")
        lines.append(f'{prom}{suffix}{{window="{window}"}} {_fmt(value)}')

    kind = metric["type"]
    if kind == "windowed_counter":
        gauge("_rate_per_s", metric["rate_per_s"])
        gauge("_window_total", metric["total"])
        lines.append(f"# TYPE {prom}_total counter")
        lines.append(f"{prom}_total {_fmt(metric['cumulative'])}")
    elif kind == "windowed_gauge":
        gauge("", metric["last"])
        gauge("_window_min", metric["min"])
        gauge("_window_max", metric["max"])
    else:  # windowed_histogram
        gauge("_rate_per_s", metric["rate_per_s"])
        gauge("_window_count", metric["count"])
        gauge("_p50", metric.get("p50", float("nan")))
        gauge("_p99", metric.get("p99", float("nan")))
        lines.append(f"# TYPE {prom}_count_total counter")
        lines.append(f"{prom}_count_total {_fmt(metric['cumulative_count'])}")
    return lines


def to_prometheus_text(reg: MetricsRegistry | None = None) -> str:
    """The registry in Prometheus text exposition format."""
    reg = reg if reg is not None else _default_registry()
    lines: list[str] = []
    for name, metric in sorted(reg.snapshot().items()):
        prom = _prom_name(name)
        if metric["type"] == "counter":
            lines.append(f"# TYPE {prom}_total counter")
            lines.append(f"{prom}_total {_fmt(metric['value'])}")
        elif metric["type"] == "gauge":
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_fmt(metric['value'])}")
        elif metric["type"].startswith("windowed_"):
            lines.extend(_windowed_lines(prom, metric))
        else:  # histogram
            lines.append(f"# TYPE {prom} histogram")
            exemplars = metric.get("exemplars", {})
            cumulative = 0
            for i, (bound, count) in enumerate(
                zip(metric["bounds"], metric["bucket_counts"])
            ):
                cumulative += count
                le = escape_label_value(_fmt(bound))
                line = f'{prom}_bucket{{le="{le}"}} {cumulative}'
                exemplar = exemplars.get(str(i))
                if exemplar is not None:
                    tid = escape_label_value(str(exemplar["trace_id"]))
                    line += f' # {{trace_id="{tid}"}} {_fmt(exemplar["value"])}'
                lines.append(line)
            line = f'{prom}_bucket{{le="+Inf"}} {metric["count"]}'
            overflow = exemplars.get(str(len(metric["bounds"])))
            if overflow is not None:
                tid = escape_label_value(str(overflow["trace_id"]))
                line += f' # {{trace_id="{tid}"}} {_fmt(overflow["value"])}'
            lines.append(line)
            lines.append(f"{prom}_sum {_fmt(metric['sum'])}")
            lines.append(f"{prom}_count {metric['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_profile_table(profile: Mapping[str, Mapping[str, Any]] | None = None) -> str:
    """ASCII table of a span profile (default: the active recorder's),
    slowest total first."""
    # Imported here, not at module top: reporting.tables pulls in the
    # core comparison types, and obs must stay importable from every
    # layer without cycles.
    from repro.reporting.tables import render_table

    profile = profile if profile is not None else span_profile()
    rows = []
    for path, s in sorted(profile.items(), key=lambda kv: kv[1]["total_s"], reverse=True):
        count, total = s["count"], s["total_s"]
        mean_ms = 1e3 * total / count if count else 0.0
        rows.append((path, count, f"{total:.4f}", f"{mean_ms:.2f}", f"{1e3 * s['max_s']:.2f}"))
    return render_table(
        ["span", "calls", "total s", "mean ms", "max ms"], rows, title="RUN PROFILE"
    )
