"""Machine-readable benchmark records.

Each perf-gated bench writes a ``BENCH_<name>.json`` file under
``benchmarks/results/`` holding the wall times, the derived speedup, the
workload parameters, and the git SHA of the tree that produced them
with a ``git_dirty`` flag (uncommitted edits to tracked files: the
record then measured code that is not the SHA's) — one small
self-describing record per bench, so the perf trajectory can be tracked
PR-over-PR by diffing the JSON instead of re-reading bench stdout.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Mapping

# Provenance fields live in repro.obs.manifest (single source of truth,
# shared with the CLI's --telemetry run manifest); re-exported here so
# benches keep importing them from reporting.
from repro.obs.manifest import git_sha, host_info

RESULTS_DIR = Path(__file__).parent / "results"
# Append-only perf-trajectory files live at the repo root so they are
# easy to spot in review diffs (one BENCH_<name>.json per bench).
TRAJECTORY_DIR = Path(__file__).parent.parent

__all__ = ["append_trajectory", "git_dirty", "git_sha", "host_info", "write_bench_record"]


# The records a bench writes: rewriting them is the bench's own output,
# not an edit to the code it measured (``top``: from the checkout root,
# wherever ``git`` runs).
_RECORD_PATHSPECS = (
    ":(top,glob,exclude)BENCH_*.json",
    ":(top,glob,exclude)benchmarks/results/BENCH_*.json",
)


def git_dirty(cwd: str | Path | None = None) -> bool:
    """Whether the checkout holding ``cwd`` (default: this directory) has
    uncommitted changes to tracked files other than the bench records
    (root and ``benchmarks/results/`` ``BENCH_*.json``); False outside a
    git checkout, where :func:`git_sha` reports "unknown"."""
    try:
        out = subprocess.run(
            [
                "git", "status", "--porcelain", "--untracked-files=no",
                "--", ":/", *_RECORD_PATHSPECS,
            ],
            cwd=Path(cwd) if cwd is not None else Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return False
    return out.returncode == 0 and bool(out.stdout.strip())


def write_bench_record(
    name: str,
    *,
    timings_s: Mapping[str, float],
    workload: Mapping[str, Any],
    speedup: float | None = None,
    speedup_floor: float | None = None,
    extra: Mapping[str, Any] | None = None,
    results_dir: Path | None = None,
) -> Path:
    """Write ``BENCH_<name>.json`` and return its path.

    Args:
        name: bench identifier (file becomes ``BENCH_<name>.json``).
        timings_s: labelled wall times, e.g. ``{"cold": 4.1, "warm": 0.4}``.
        workload: the parameters that define the measured workload.
        speedup: the bench's headline ratio, when it has one.
        speedup_floor: the gate the bench asserts against.
        extra: any additional fields worth recording.
        results_dir: override the output directory (tests).
    """
    record: dict[str, Any] = {
        "bench": name,
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "python": platform.python_version(),
        "recorded_at_unix_s": time.time(),
        "workload": dict(workload),
        "timings_s": {k: float(v) for k, v in timings_s.items()},
    }
    if speedup is not None:
        record["speedup"] = float(speedup)
    if speedup_floor is not None:
        record["speedup_floor"] = float(speedup_floor)
    if extra:
        record["extra"] = dict(extra)
    out_dir = results_dir if results_dir is not None else RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    # Mirror into the repo-root trajectory so the PR-over-PR history is a
    # single append-only file per bench. Tests that redirect results_dir
    # get their trajectory redirected too (a subdir, since the trajectory
    # shares the record's filename) — no stray repo-root writes.
    append_trajectory(
        record,
        trajectory_dir=None if results_dir is None else results_dir / "trajectory",
    )
    return path


def append_trajectory(
    record: Mapping[str, Any], *, trajectory_dir: Path | None = None
) -> Path:
    """Append ``record`` to the repo-root ``BENCH_<name>.json`` trajectory.

    The trajectory file holds every recorded run of the bench, keyed by
    git SHA: a clean re-run on the same SHA replaces that SHA's trailing
    entries (so local retries don't bloat the history), a new SHA
    appends. A record from a dirty tree (``git_dirty``; a record without
    the flag counts as clean) replaces only a dirty entry of its SHA and
    is appended after a clean one, never over it. ``repro obs diff``
    accepts these files directly — the latest entry is compared.
    """
    name = str(record["bench"])
    out_dir = trajectory_dir if trajectory_dir is not None else TRAJECTORY_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    history: list[dict[str, Any]] = []
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
        if isinstance(data, dict) and isinstance(data.get("trajectory"), list):
            history = list(data["trajectory"])
    entry = dict(record)
    sha = entry.get("git_sha")
    if entry.get("git_dirty"):
        if history and history[-1].get("git_sha") == sha and history[-1].get("git_dirty"):
            history.pop()
    else:
        while history and history[-1].get("git_sha") == sha:
            history.pop()
    history.append(entry)
    payload = {"bench": name, "schema": 1, "trajectory": history}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
