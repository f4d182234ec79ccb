"""Run reports and run-to-run diffs over manifests and bench records.

Three JSON shapes flow through here, all normalized into one flat
summary (:func:`summarize`) before rendering or diffing:

* a run manifest (``--telemetry`` / ``obs.manifest``), optionally
  carrying the recording digest under ``"trace"``;
* a single ``BENCH_<name>.json`` record (``benchmarks/reporting.py``);
* a repo-root trajectory file (``{"bench": ..., "trajectory": [...]}``)
  — the latest entry is summarized.

:func:`render_html_report` emits one self-contained HTML file (inline
CSS, inline SVG bars, no external fetches) and
:func:`render_ascii_report` the terminal equivalent — both behind the
``repro report <manifest>`` CLI mode. :func:`diff_summaries` compares
two summaries row by row; each row only *breaches* when the caller
configured a threshold for its metric (``repro obs diff`` maps breaches
to a non-zero exit code, so CI can gate on drift while unconfigured
metrics stay informational).
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ValidationError

__all__ = [
    "DiffRow",
    "DiffThresholds",
    "diff_summaries",
    "load_summary",
    "render_ascii_report",
    "render_diff_table",
    "render_html_report",
    "summarize",
]


# --- normalization ------------------------------------------------------------


def load_summary(path: str | Path) -> dict[str, Any]:
    """Load a manifest / bench record / trajectory file and summarize it."""
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read run data from {p}: {exc}") from exc
    if not isinstance(data, Mapping):
        raise ValidationError(f"{p} does not contain a JSON object")
    return summarize(data, label=p.name)


def summarize(data: Mapping[str, Any], *, label: str | None = None) -> dict[str, Any]:
    """Flatten any supported run-data shape into one comparable summary.

    The summary carries only scalars and flat mappings: ``served_pct``,
    ``coverage_pct``, ``mean_fidelity``, ``causes`` (name -> count),
    ``phases`` (span path -> total seconds), ``timings_s`` (bench label
    -> seconds), plus provenance (``kind``, ``label``, ``git_sha``).
    Absent facets are ``None``/empty rather than guessed.
    """
    if "trajectory" in data:
        trajectory = data["trajectory"]
        if not isinstance(trajectory, list) or not trajectory:
            raise ValidationError("trajectory file has no entries")
        summary = summarize(trajectory[-1], label=label)
        summary["kind"] = "trajectory"
        summary["trajectory_len"] = len(trajectory)
        return summary

    out: dict[str, Any] = {
        "kind": "bench" if "bench" in data else "manifest",
        "label": label or data.get("command") or data.get("bench") or "run",
        "command": data.get("command") or data.get("bench"),
        "git_sha": data.get("git_sha"),
        "created_at_unix_s": data.get("created_at_unix_s")
        or data.get("recorded_at_unix_s"),
        "started_at": data.get("started_at"),
        "finished_at": data.get("finished_at"),
        "duration_s": data.get("duration_s"),
        "slo": (data.get("extra") or {}).get("slo"),
        "requests_total": None,
        "requests_served": None,
        "served_pct": None,
        "coverage_pct": None,
        "mean_fidelity": None,
        "causes": {},
        "by_lan_pair": {},
        "satellites": {},
        "outages": [],
        "phases": {},
        "timings_s": {},
        "workload": dict(data.get("workload") or {}),
        "trace": data.get("trace"),
    }

    metrics = data.get("metrics") or {}
    served = _metric_value(metrics, "network.requests.served")
    denied = _metric_value(metrics, "network.requests.denied")
    if served is not None or denied is not None:
        total = (served or 0.0) + (denied or 0.0)
        out["requests_total"] = int(total)
        out["requests_served"] = int(served or 0)
        out["served_pct"] = 100.0 * (served or 0.0) / total if total else None
    fidelity = metrics.get("network.fidelity")
    if isinstance(fidelity, Mapping) and fidelity.get("count"):
        out["mean_fidelity"] = fidelity["sum"] / fidelity["count"]

    trace = data.get("trace")
    if isinstance(trace, Mapping):
        requests = trace.get("requests") or {}
        if requests.get("total"):
            out["requests_total"] = requests["total"]
            out["requests_served"] = requests.get("served")
            out["served_pct"] = requests.get("served_pct")
            if requests.get("mean_fidelity") is not None:
                out["mean_fidelity"] = requests["mean_fidelity"]
        out["causes"] = {
            k: v for k, v in (requests.get("causes") or {}).items() if v
        }
        out["by_lan_pair"] = dict(requests.get("by_lan_pair") or {})
        out["satellites"] = dict(
            (trace.get("satellites") or {}).get("utilization") or {}
        )
        coverage = trace.get("coverage")
        if isinstance(coverage, Mapping):
            out["coverage_pct"] = coverage.get("percentage")
            out["outages"] = list(coverage.get("outages") or [])

    for path, stats in (data.get("profile") or {}).items():
        if isinstance(stats, Mapping) and "total_s" in stats:
            out["phases"][path] = float(stats["total_s"])

    for name, seconds in (data.get("timings_s") or {}).items():
        out["timings_s"][name] = float(seconds)

    if "speedup" in data:
        out["speedup"] = float(data["speedup"])
    return out


def _metric_value(metrics: Mapping[str, Any], name: str) -> float | None:
    metric = metrics.get(name)
    if isinstance(metric, Mapping) and "value" in metric:
        return float(metric["value"])
    return None


# --- diffing ------------------------------------------------------------------


@dataclass(frozen=True)
class DiffThresholds:
    """Gate configuration for :func:`diff_summaries`.

    Each field is a maximum tolerated *absolute* delta — percentage
    points for the ``*_pct`` metrics, fidelity units for fidelity,
    request counts for causes, and relative percent for the timing
    families. ``None`` leaves the metric informational (never breaches).
    """

    served_pct: float | None = None
    coverage_pct: float | None = None
    mean_fidelity: float | None = None
    cause_count: float | None = None
    phase_pct: float | None = None
    timing_pct: float | None = None


@dataclass(frozen=True)
class DiffRow:
    """One compared metric: values, delta, and whether it breached."""

    metric: str
    a: float | None
    b: float | None
    delta: float | None
    threshold: float | None
    breached: bool


def _scalar_row(
    metric: str, a: float | None, b: float | None, threshold: float | None
) -> DiffRow:
    delta = b - a if a is not None and b is not None else None
    breached = threshold is not None and delta is not None and abs(delta) > threshold
    return DiffRow(metric, a, b, delta, threshold, breached)


def _relative_rows(
    prefix: str,
    a_map: Mapping[str, float],
    b_map: Mapping[str, float],
    threshold: float | None,
) -> list[DiffRow]:
    """Rows with deltas in relative percent of the baseline value."""
    rows = []
    for key in sorted(set(a_map) | set(b_map)):
        a, b = a_map.get(key), b_map.get(key)
        if a is not None and b is not None and a > 0:
            delta = 100.0 * (b - a) / a
        else:
            delta = None
        breached = (
            threshold is not None and delta is not None and abs(delta) > threshold
        )
        rows.append(DiffRow(f"{prefix}/{key}", a, b, delta, threshold, breached))
    return rows


def diff_summaries(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    thresholds: DiffThresholds | None = None,
) -> list[DiffRow]:
    """Compare two :func:`summarize` outputs (``b`` relative to ``a``)."""
    th = thresholds or DiffThresholds()
    rows = [
        _scalar_row("served_pct", a.get("served_pct"), b.get("served_pct"), th.served_pct),
        _scalar_row(
            "coverage_pct", a.get("coverage_pct"), b.get("coverage_pct"), th.coverage_pct
        ),
        _scalar_row(
            "mean_fidelity",
            a.get("mean_fidelity"),
            b.get("mean_fidelity"),
            th.mean_fidelity,
        ),
    ]
    a_causes, b_causes = a.get("causes") or {}, b.get("causes") or {}
    for cause in sorted(set(a_causes) | set(b_causes)):
        rows.append(
            _scalar_row(
                f"cause/{cause}",
                float(a_causes.get(cause, 0)),
                float(b_causes.get(cause, 0)),
                th.cause_count,
            )
        )
    rows.extend(
        _relative_rows("phase", a.get("phases") or {}, b.get("phases") or {}, th.phase_pct)
    )
    rows.extend(
        _relative_rows(
            "timing", a.get("timings_s") or {}, b.get("timings_s") or {}, th.timing_pct
        )
    )
    return rows


def render_diff_table(
    rows: list[DiffRow], *, label_a: str = "A", label_b: str = "B"
) -> str:
    """ASCII table of diff rows; breached rows are marked ``!``."""
    from repro.reporting.tables import render_table

    def fmt(v: float | None) -> str:
        if v is None:
            return "-"
        return f"{v:.6g}"

    table_rows = []
    for r in rows:
        mark = "!" if r.breached else ""
        thr = fmt(r.threshold) if r.threshold is not None else "-"
        table_rows.append((r.metric, fmt(r.a), fmt(r.b), fmt(r.delta), thr, mark))
    return render_table(
        ["metric", label_a, label_b, "delta", "threshold", ""],
        table_rows,
        title="RUN DIFF",
    )


# --- rendering ----------------------------------------------------------------

_CAUSE_LABELS = {
    "no_visible_satellite": "no visible satellite",
    "low_elevation": "elevation < pi/9",
    "low_transmissivity": "eta < 0.7",
    "no_route": "no end-to-end route",
}

_HTML_STYLE = """
body { font-family: -apple-system, "Segoe UI", Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #16213e; padding-bottom: .3rem; }
h2 { font-size: 1.1rem; margin-top: 1.6rem; }
table { border-collapse: collapse; margin: .6rem 0; }
th, td { border: 1px solid #cbd5e1; padding: .25rem .6rem; text-align: right; }
th { background: #eef2f7; }
td:first-child, th:first-child { text-align: left; }
.kv td { border: none; padding: .1rem .8rem .1rem 0; text-align: left; }
.bar { fill: #3b6ea5; }
.bar-denied { fill: #b5544d; }
.muted { color: #667; font-size: .85rem; }
"""


def _fmt_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _html_table(headers: list[str], rows: list[tuple]) -> str:
    head = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(_fmt_cell(c))}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _svg_bar(fraction: float, *, width: int = 220, cls: str = "bar") -> str:
    w = max(0.0, min(1.0, fraction)) * width
    return (
        f'<svg width="{width}" height="12" role="img">'
        f'<rect width="{width}" height="12" fill="#e5e9f0"></rect>'
        f'<rect class="{cls}" width="{w:.1f}" height="12"></rect></svg>'
    )


def _summary_sections(summary: Mapping[str, Any]) -> list[tuple[str, list[str]]]:
    """(title, html-fragments) sections shared by the HTML renderer."""
    sections: list[tuple[str, list[str]]] = []

    duration = summary.get("duration_s")
    info_rows = [
        ("command", summary.get("command")),
        ("git sha", summary.get("git_sha")),
        ("kind", summary.get("kind")),
        ("started", summary.get("started_at")),
        ("finished", summary.get("finished_at")),
        ("duration", f"{duration:.3f} s" if isinstance(duration, (int, float)) else None),
    ]
    for key, value in (summary.get("workload") or {}).items():
        info_rows.append((f"workload.{key}", value))
    kv = "".join(
        f"<tr><td>{html.escape(str(k))}</td><td>{html.escape(_fmt_cell(v))}</td></tr>"
        for k, v in info_rows
        if v is not None
    )
    sections.append(("Run", [f'<table class="kv">{kv}</table>']))

    if summary.get("requests_total"):
        total = summary["requests_total"]
        served = summary.get("requests_served") or 0
        frags = [
            _html_table(
                ["requests", "served", "denied", "served %", "mean fidelity"],
                [
                    (
                        total,
                        served,
                        total - served,
                        summary.get("served_pct"),
                        summary.get("mean_fidelity"),
                    )
                ],
            ),
            _svg_bar(served / total if total else 0.0),
        ]
        causes = summary.get("causes") or {}
        if causes:
            denied = max(1, total - served)
            rows = [
                (
                    _CAUSE_LABELS.get(name, name),
                    count,
                    100.0 * count / denied,
                )
                for name, count in sorted(causes.items(), key=lambda kv: -kv[1])
            ]
            frags.append(_html_table(["denial cause", "requests", "% of denied"], rows))
        sections.append(("Requests", frags))

    pairs = summary.get("by_lan_pair") or {}
    if pairs:
        cause_cols = sorted({c for p in pairs.values() for c in p if c not in ("total", "served")})
        rows = []
        for pair, stats in sorted(pairs.items()):
            rows.append(
                (pair, stats.get("total", 0), stats.get("served", 0))
                + tuple(stats.get(c, 0) for c in cause_cols)
            )
        sections.append(
            (
                "LAN pairs",
                [_html_table(["pair", "total", "served", *cause_cols], rows)],
            )
        )

    if summary.get("coverage_pct") is not None:
        frags = [
            f"<p>coverage {summary['coverage_pct']:.2f} % "
            f"{_svg_bar(summary['coverage_pct'] / 100.0)}</p>"
        ]
        outages = summary.get("outages") or []
        if outages:
            rows = [
                (f"{start:.0f}", f"{end:.0f}", f"{end - start:.0f}")
                for start, end in outages[:50]
            ]
            frags.append(_html_table(["outage start s", "end s", "duration s"], rows))
            if len(outages) > 50:
                frags.append(
                    f'<p class="muted">... {len(outages) - 50} more outages</p>'
                )
        sections.append(("Coverage", frags))

    satellites = summary.get("satellites") or {}
    if satellites:
        top = list(satellites.items())[:15]
        peak = max(count for _, count in top)
        rows = [
            (name, count, _svg_bar(count / peak)) for name, count in top
        ]
        body = "".join(
            f"<tr><td>{html.escape(name)}</td><td>{count}</td><td>{bar}</td></tr>"
            for name, count, bar in rows
        )
        frags = [
            "<table><tr><th>platform</th><th>served requests</th><th></th></tr>"
            f"{body}</table>"
        ]
        if len(satellites) > 15:
            frags.append(
                f'<p class="muted">... {len(satellites) - 15} more platforms</p>'
            )
        sections.append(("Platform utilization", frags))

    phases = summary.get("phases") or {}
    if phases:
        rows = sorted(phases.items(), key=lambda kv: -kv[1])
        sections.append(
            (
                "Phase profile",
                [_html_table(["span", "total s"], [(p, f"{s:.4f}") for p, s in rows])],
            )
        )

    timings = summary.get("timings_s") or {}
    if timings:
        sections.append(
            (
                "Timings",
                [
                    _html_table(
                        ["timing", "seconds"],
                        [(k, f"{v:.4f}") for k, v in sorted(timings.items())],
                    )
                ],
            )
        )

    trace = summary.get("trace")
    if isinstance(trace, Mapping):
        frags = _waterfall_fragments(trace)
        if frags:
            sections.append(("Slowest requests", frags))

    slo = summary.get("slo")
    if isinstance(slo, Mapping):
        sections.append(("SLO", _slo_fragments(slo)))
    return sections


def _entry_label(entry: Mapping[str, Any]) -> str:
    """One-line header for a slowest-trace waterfall entry."""
    label = f"{entry.get('trace', '?')}  {entry.get('dur_us', 0) / 1e3:.3f} ms"
    attrs = entry.get("attrs") or {}
    if attrs:
        pairs = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        label += f"  [{pairs}]"
    return label


def _waterfall_fragments(trace: Mapping[str, Any]) -> list[str]:
    """HTML fragments: one offset-bar table per slowest trace."""
    frags: list[str] = []
    for entry in trace.get("slowest") or []:
        total = max(1, int(entry.get("dur_us", 0)))
        rows = []
        for span in entry.get("spans") or []:
            off = int(span.get("off_us", 0))
            dur = int(span.get("dur_us", 0))
            x = max(0.0, min(1.0, off / total))
            w = max(0.005, min(1.0 - x, dur / total))
            bar = (
                '<svg width="220" height="10" role="img">'
                '<rect width="220" height="10" fill="#e5e9f0"></rect>'
                f'<rect class="bar" x="{x * 220:.1f}" width="{w * 220:.1f}" '
                'height="10"></rect></svg>'
            )
            rows.append((span.get("path"), f"{off / 1e3:.3f}", f"{dur / 1e3:.3f}", bar))
        body = "".join(
            f"<tr><td>{html.escape(str(path))}</td><td>{off_ms}</td>"
            f"<td>{dur_ms}</td><td>{bar}</td></tr>"
            for path, off_ms, dur_ms, bar in rows
        )
        frags.append(f"<p>{html.escape(_entry_label(entry))}</p>")
        frags.append(
            "<table><tr><th>span</th><th>offset ms</th><th>duration ms</th>"
            f"<th></th></tr>{body}</table>"
        )
    return frags


_STATE_COLORS = {"ok": "#4a8f52", "warning": "#d08b1d", "critical": "#b5544d"}


def _worst_state(point: Mapping[str, Any]) -> str:
    """The most severe objective state in one snapshot point."""
    order = ("ok", "warning", "critical")
    worst = "ok"
    for objective in (point.get("objectives") or {}).values():
        state = objective.get("state", "ok")
        if state in order and order.index(state) > order.index(worst):
            worst = state
    return worst


def _svg_timeseries(
    snapshots: list[Mapping[str, Any]], *, width: int = 460, height: int = 80
) -> str:
    """SLO time-series panel: served-rate polyline over a state band.

    The polyline tracks ``served_rate_per_s`` (long window); the strip
    along the bottom colors each snapshot by its worst objective state,
    so a burn-rate excursion is visible even when throughput looks flat.
    """
    times = [p.get("t") for p in snapshots]
    rates = [p.get("served_rate_per_s") for p in snapshots]
    usable = [
        (t, r) for t, r in zip(times, rates) if t is not None and r is not None
    ]
    if len(usable) < 2:
        return '<p class="muted">not enough snapshots for a time series</p>'
    t0, t1 = usable[0][0], usable[-1][0]
    span = (t1 - t0) or 1.0
    peak = max(r for _, r in usable) or 1.0
    chart_h = height - 12  # reserve the bottom strip for the state band
    points = " ".join(
        f"{(t - t0) / span * width:.1f},{chart_h - r / peak * (chart_h - 4):.1f}"
        for t, r in usable
    )
    band = []
    for i, point in enumerate(snapshots):
        t = point.get("t")
        if t is None:
            continue
        x = (t - t0) / span * width
        next_t = snapshots[i + 1].get("t") if i + 1 < len(snapshots) else t1
        w = max(1.0, ((next_t or t1) - t) / span * width)
        color = _STATE_COLORS[_worst_state(point)]
        band.append(
            f'<rect x="{x:.1f}" y="{height - 10}" width="{w:.1f}" height="8" '
            f'fill="{color}"></rect>'
        )
    return (
        f'<svg width="{width}" height="{height}" role="img">'
        f'<rect width="{width}" height="{height}" fill="#f4f6fa"></rect>'
        f'<polyline points="{points}" fill="none" stroke="#3b6ea5" '
        'stroke-width="1.5"></polyline>'
        f"{''.join(band)}</svg>"
        f'<p class="muted">served rate (peak {peak:.3g}/s) over t = {t0:.1f} .. '
        f"{t1:.1f} s; band colors the worst objective state</p>"
    )


def _slo_fragments(slo: Mapping[str, Any]) -> list[str]:
    """HTML fragments for a manifest's ``extra.slo`` summary."""
    frags: list[str] = []
    spec = slo.get("spec") or {}
    if spec:
        kv = "".join(
            f"<tr><td>{html.escape(str(k))}</td><td>{html.escape(_fmt_cell(v))}</td></tr>"
            for k, v in sorted(spec.items())
            if v is not None
        )
        frags.append(f'<table class="kv">{kv}</table>')
    final_states = slo.get("final_states") or {}
    if final_states:
        frags.append(
            _html_table(
                ["objective", "final state"], sorted(final_states.items())
            )
        )
    transitions = slo.get("transitions") or []
    if transitions:
        rows = [
            (e.get("objective"), e.get("from"), e.get("to"), _fmt_cell(e.get("t")))
            for e in transitions[:50]
        ]
        frags.append(_html_table(["objective", "from", "to", "t"], rows))
        if len(transitions) > 50:
            frags.append(
                f'<p class="muted">... {len(transitions) - 50} more transitions</p>'
            )
    snapshots = slo.get("snapshots") or []
    if snapshots:
        frags.append(_svg_timeseries(snapshots))
    if not frags:
        frags.append('<p class="muted">no SLO data recorded</p>')
    return frags


def render_html_report(summary: Mapping[str, Any], *, title: str | None = None) -> str:
    """One self-contained HTML page for a normalized run summary."""
    title = title or f"repro run report - {summary.get('label', 'run')}"
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
    ]
    for section_title, frags in _summary_sections(summary):
        parts.append(f"<h2>{html.escape(section_title)}</h2>")
        parts.extend(frags)
    parts.append("</body></html>")
    return "\n".join(parts)


def render_ascii_report(summary: Mapping[str, Any]) -> str:
    """Terminal rendering of the same summary (``--format ascii``)."""
    from repro.reporting.tables import render_table

    blocks: list[str] = []
    label = summary.get("label", "run")
    sha = summary.get("git_sha") or "unknown"
    blocks.append(f"RUN REPORT - {label} @ {sha[:12]}")
    if summary.get("started_at"):
        duration = summary.get("duration_s")
        took = f" ({duration:.3f} s)" if isinstance(duration, (int, float)) else ""
        blocks.append(
            f"ran {summary['started_at']} -> {summary.get('finished_at', '?')}{took}"
        )

    if summary.get("requests_total"):
        total = summary["requests_total"]
        served = summary.get("requests_served") or 0
        blocks.append(
            render_table(
                ["requests", "served", "denied", "served %", "mean fidelity"],
                [
                    (
                        total,
                        served,
                        total - served,
                        _fmt_cell(summary.get("served_pct")),
                        _fmt_cell(summary.get("mean_fidelity")),
                    )
                ],
                title="REQUESTS",
            )
        )
        causes = summary.get("causes") or {}
        if causes:
            blocks.append(
                render_table(
                    ["denial cause", "requests"],
                    sorted(causes.items(), key=lambda kv: -kv[1]),
                    title="DENIAL CAUSES",
                )
            )
    pairs = summary.get("by_lan_pair") or {}
    if pairs:
        blocks.append(
            render_table(
                ["pair", "total", "served"],
                [
                    (p, s.get("total", 0), s.get("served", 0))
                    for p, s in sorted(pairs.items())
                ],
                title="LAN PAIRS",
            )
        )
    if summary.get("coverage_pct") is not None:
        outages = summary.get("outages") or []
        longest = max((e - s for s, e in outages), default=0.0)
        blocks.append(
            f"coverage: {summary['coverage_pct']:.2f} %  "
            f"({len(outages)} outages, longest {longest:.0f} s)"
        )
    satellites = summary.get("satellites") or {}
    if satellites:
        blocks.append(
            render_table(
                ["platform", "served requests"],
                list(satellites.items())[:10],
                title="PLATFORM UTILIZATION (TOP 10)",
            )
        )
    phases = summary.get("phases") or {}
    if phases:
        blocks.append(
            render_table(
                ["span", "total s"],
                [(p, f"{s:.4f}") for p, s in sorted(phases.items(), key=lambda kv: -kv[1])],
                title="PHASE PROFILE",
            )
        )
    timings = summary.get("timings_s") or {}
    if timings:
        blocks.append(
            render_table(
                ["timing", "seconds"],
                [(k, f"{v:.4f}") for k, v in sorted(timings.items())],
                title="TIMINGS",
            )
        )
    trace = summary.get("trace")
    if isinstance(trace, Mapping) and (trace.get("slowest") or []):
        lines = ["SLOWEST REQUESTS"]
        for entry in trace["slowest"]:
            lines.append(_entry_label(entry))
            lines.extend(_ascii_waterfall(entry))
        blocks.append("\n".join(lines))
    slo = summary.get("slo")
    if isinstance(slo, Mapping):
        final_states = slo.get("final_states") or {}
        if final_states:
            blocks.append(
                render_table(
                    ["objective", "final state"],
                    sorted(final_states.items()),
                    title="SLO",
                )
            )
        transitions = slo.get("transitions") or []
        snapshots = slo.get("snapshots") or []
        blocks.append(
            f"slo: {len(transitions)} transitions, {len(snapshots)} snapshots"
        )
        spark = _ascii_sparkline(
            [p.get("served_rate_per_s") for p in snapshots]
        )
        if spark:
            blocks.append(f"served rate: {spark}")
    return "\n\n".join(blocks)


def _ascii_waterfall(entry: Mapping[str, Any], *, width: int = 40) -> list[str]:
    """Per-span offset bars for one slowest-trace entry (terminal)."""
    total = max(1, int(entry.get("dur_us", 0)))
    spans = entry.get("spans") or []
    pad = max((len(str(s.get("path"))) for s in spans), default=0)
    lines = []
    for span in spans:
        off = int(span.get("off_us", 0))
        dur = int(span.get("dur_us", 0))
        start = min(width - 1, round(off / total * width))
        length = max(1, min(width - start, round(dur / total * width)))
        bar = " " * start + "#" * length
        lines.append(
            f"  {str(span.get('path')):<{pad}}  |{bar:<{width}}| "
            f"+{off / 1e3:.3f} ms  {dur / 1e3:.3f} ms"
        )
    return lines


_SPARK_CHARS = " .:-=+*#%@"


def _ascii_sparkline(values: list, *, width: int = 60) -> str:
    """Terminal sparkline of a numeric series (empty when too sparse)."""
    usable = [float(v) for v in values if isinstance(v, (int, float))]
    if len(usable) < 2:
        return ""
    if len(usable) > width:
        stride = len(usable) / width
        usable = [usable[int(i * stride)] for i in range(width)]
    peak = max(usable)
    if peak <= 0:
        return _SPARK_CHARS[0] * len(usable)
    steps = len(_SPARK_CHARS) - 1
    return "".join(_SPARK_CHARS[round(v / peak * steps)] for v in usable)
