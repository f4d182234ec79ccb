"""Run manifests: one JSON record describing a whole run.

A manifest snapshots everything needed to interpret a run's numbers
after the fact: the git SHA and host that produced it, the command and
workload, every metric (counters, gauges, histograms), the span profile
the active recorder aggregates, and the per-worker shard reports
gathered from process-pool sweeps.
The CLI's ``--telemetry PATH`` flag writes one at the end of every
command; CI uploads the smoke sweep's manifest as a workflow artifact.

:func:`git_sha` and :func:`host_info` live here as the single source of
truth for provenance fields — ``benchmarks/reporting.py`` re-exports
them for the ``BENCH_*.json`` records rather than keeping its own copy.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.obs import events as events_mod
from repro.obs.metrics import registry

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "git_sha",
    "host_info",
    "mark_run_started",
    "record_worker_report",
    "run_manifest",
    "worker_reports",
    "write_run_manifest",
]

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1


# --- run timestamps -----------------------------------------------------------

# Wall-clock and monotonic marks of the current run's start. Import time
# is a serviceable default for one-shot CLI processes; obs.reset() (which
# the CLI calls when telemetry turns on) re-marks, so long-lived
# processes that reset between runs get per-run timestamps.
_RUN_STARTED_UNIX_S = time.time()
_RUN_STARTED_MONOTONIC = time.monotonic()


def mark_run_started() -> None:
    """Mark *now* as the current run's start (called by ``obs.reset``)."""
    global _RUN_STARTED_UNIX_S, _RUN_STARTED_MONOTONIC
    _RUN_STARTED_UNIX_S = time.time()
    _RUN_STARTED_MONOTONIC = time.monotonic()


def _iso_utc(unix_s: float) -> str:
    """Unix seconds as UTC ISO-8601 with a trailing ``Z``."""
    from datetime import datetime, timezone

    stamp = datetime.fromtimestamp(unix_s, tz=timezone.utc)
    return stamp.isoformat(timespec="seconds").replace("+00:00", "Z")


def git_sha(cwd: str | Path | None = None) -> str:
    """The current commit SHA, or "unknown" outside a git checkout.

    Args:
        cwd: directory to resolve the repository from; defaults to this
            file's directory (works for the source tree; an installed
            package reports "unknown", which is the honest answer).
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(cwd) if cwd is not None else Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def host_info() -> dict[str, Any]:
    """Provenance description of the executing host."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


# --- per-worker shard reports -------------------------------------------------

_WORKER_REPORTS: list[dict[str, Any]] = []


def record_worker_report(report: Mapping[str, Any]) -> None:
    """Append one worker's shard report to the run telemetry.

    Called by the parent side of the process-pool sweeps after gathering
    results; no-op while telemetry is disabled so long-lived library use
    never accumulates state.
    """
    if registry().enabled:
        _WORKER_REPORTS.append(dict(report))


def worker_reports() -> list[dict[str, Any]]:
    """Shard reports recorded so far (copies, insertion order)."""
    return [dict(r) for r in _WORKER_REPORTS]


def clear_worker_reports() -> None:
    """Drop all recorded shard reports."""
    _WORKER_REPORTS.clear()


# --- manifest assembly --------------------------------------------------------


def run_manifest(
    *,
    command: str | None = None,
    argv: Sequence[str] | None = None,
    workload: Mapping[str, Any] | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the manifest dict for the current process state."""
    finished_unix_s = time.time()
    duration_s = time.monotonic() - _RUN_STARTED_MONOTONIC
    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "created_at_unix_s": finished_unix_s,
        "started_at": _iso_utc(_RUN_STARTED_UNIX_S),
        "finished_at": _iso_utc(finished_unix_s),
        "duration_s": duration_s,
        "git_sha": git_sha(),
        "host": host_info(),
        "metrics": registry().snapshot(),
        "profile": events_mod.span_profile(),
        "workers": worker_reports(),
    }
    recorder = events_mod.active()
    if recorder is not None and recorder.keeps_records:
        # The recording digest (denial causes per LAN pair, outage
        # timeline, satellite utilization, span counts, the N slowest
        # request waterfalls) rides inside the manifest so `repro
        # report` / `repro obs diff` need only the one file.
        manifest["trace"] = recorder.summary()
    if command is not None:
        manifest["command"] = command
    if argv is not None:
        manifest["argv"] = [str(a) for a in argv]
    if workload is not None:
        manifest["workload"] = {k: _jsonable(v) for k, v in workload.items()}
    if extra:
        manifest["extra"] = {k: _jsonable(v) for k, v in extra.items()}
    return manifest


def write_run_manifest(path: str | Path, **kwargs: Any) -> Path:
    """Write :func:`run_manifest` as indented JSON; returns the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(run_manifest(**kwargs), indent=2, sort_keys=True) + "\n")
    return out


def _jsonable(value: Any) -> Any:
    """Best-effort coercion of workload values to JSON-safe types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)
