"""Observability: metrics, tracing spans, and run telemetry.

One switch governs everything: :func:`enable` turns the process-wide
:class:`~repro.obs.metrics.MetricsRegistry` and the span profile on,
:func:`disable` turns them off (the default). Disabled, every
instrumented call site costs a single flag check — cheap enough to live
on the request-serving hot paths permanently (gated at <= 3 % on the
linkstate bench workload by ``benchmarks/bench_obs_overhead.py``).

Layout:

* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms;
  snapshot/merge/delta for cross-process aggregation.
* :mod:`repro.obs.spans` — nestable :func:`span` context manager and
  :func:`traced` decorator feeding the per-phase :func:`profile`; also
  the always-on local :class:`Stopwatch`.
* :mod:`repro.obs.manifest` — the JSON run manifest (git SHA, host,
  metrics, profile, worker shard reports) behind the CLI's
  ``--telemetry`` flag; :func:`git_sha`/:func:`host_info` shared with
  ``benchmarks/reporting.py``.
* :mod:`repro.obs.export` — Prometheus text dump and the ``--profile``
  ASCII table (imported on demand, not re-exported here, to keep this
  package import-light for the hot modules that instrument through it).
* :mod:`repro.obs.trace` — the per-request flight recorder (sampled
  JSONL records with denial-cause attribution) behind the CLI's
  ``--trace`` flag; off by default, one ``None`` check per request
  otherwise. :mod:`repro.obs.report` renders its manifests into
  HTML/ASCII reports and threshold-gated diffs (imported on demand).
* :mod:`repro.obs.events` — the causal timeline plane (raw span
  begin/end events with trace/span/parent ids, cross-process clock
  alignment, Chrome ``trace_event`` export) behind the CLI's
  ``--timeline`` flag; off by default, one ``None`` check per span
  otherwise (DESIGN.md §15).
* :mod:`repro.obs.live` — windowed instruments (sliding-window rates,
  rolling exact quantiles, injectable clock) registered in the same
  registry; :mod:`repro.obs.slo` evaluates declarative SLOs over them
  with multi-window burn-rate alerting. Both feed the HTTP scrape
  plane of :mod:`repro.serve.http` (DESIGN.md §14).

Typical instrumented module::

    from repro import obs

    _SERVED = obs.counter("network.requests.served")

    def serve(...):
        _SERVED.inc()          # no-op unless obs.enable() was called
        with obs.span("serve"):
            ...
"""

from repro.obs.manifest import (
    git_sha,
    host_info,
    record_worker_report,
    run_manifest,
    worker_reports,
    write_run_manifest,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_delta,
    registry,
)
from repro.obs.spans import Profile, SpanStats, Stopwatch, profile, span, traced
from repro.obs import events, live, trace

__all__ = [
    "events",
    "live",
    "trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Profile",
    "SpanStats",
    "Stopwatch",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "git_sha",
    "histogram",
    "host_info",
    "metrics_delta",
    "profile",
    "record_worker_report",
    "registry",
    "reset",
    "run_manifest",
    "span",
    "traced",
    "worker_reports",
    "write_run_manifest",
]


def enable() -> None:
    """Turn metrics and span recording on for this process."""
    registry().enabled = True


def disable() -> None:
    """Turn metrics and span recording off (instrument values persist)."""
    registry().enabled = False


def enabled() -> bool:
    """Whether telemetry is currently recording."""
    return registry().enabled


def counter(name: str) -> Counter:
    """Get-or-create a counter on the process registry."""
    return registry().counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create a gauge on the process registry."""
    return registry().gauge(name)


def histogram(name: str, buckets: tuple[float, ...] | None = None) -> Histogram:
    """Get-or-create a histogram on the process registry."""
    return registry().histogram(name, buckets=buckets)


def reset() -> None:
    """Zero all metrics, clear the profile and worker reports.

    The enabled flag is left as-is (but a force-enabled live plane is
    switched back off); instrument objects stay registered, so
    references cached at import time remain live. Any active timeline
    recorder (:mod:`repro.obs.events`) is closed and dropped, and
    histogram exemplars are cleared with the metric values — back-to-back
    runs in one process never leak events or exemplars across runs. Also
    marks *now* as the run start for the manifest's
    ``started_at``/``duration_s``.
    """
    from repro.obs.manifest import clear_worker_reports, mark_run_started

    registry().reset()
    profile().reset()
    live.force(False)
    events.reset()
    clear_worker_reports()
    mark_run_started()
