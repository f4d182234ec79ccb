"""Tests for the repo-root bench perf-trajectory mirror."""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

# The bench helpers live next to the benches, not under src/repro (they
# are tooling, not library surface); import them the way the benches do.
_BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
if str(_BENCHMARKS_DIR) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS_DIR))

reporting = importlib.import_module("reporting")
# Unpatched, to run from a subdirectory (the git_repo fixture pins the root).
_git_dirty_at = reporting.git_dirty


def _entry(sha: str, warm: float) -> dict:
    return {
        "bench": "demo",
        "git_sha": sha,
        "python": "3.11.0",
        "recorded_at_unix_s": 1_700_000_000.0,
        "workload": {"n": 1},
        "timings_s": {"warm": warm},
    }


class TestAppendTrajectory:
    def test_new_file_starts_history(self, tmp_path):
        path = reporting.append_trajectory(_entry("aaa", 1.0), trajectory_dir=tmp_path)
        assert path == tmp_path / "BENCH_demo.json"
        data = json.loads(path.read_text())
        assert data["bench"] == "demo"
        assert data["schema"] == 1
        assert [e["git_sha"] for e in data["trajectory"]] == ["aaa"]

    def test_new_sha_appends(self, tmp_path):
        reporting.append_trajectory(_entry("aaa", 1.0), trajectory_dir=tmp_path)
        reporting.append_trajectory(_entry("bbb", 1.2), trajectory_dir=tmp_path)
        data = json.loads((tmp_path / "BENCH_demo.json").read_text())
        assert [e["git_sha"] for e in data["trajectory"]] == ["aaa", "bbb"]

    def test_same_sha_replaces_last_entry(self, tmp_path):
        reporting.append_trajectory(_entry("aaa", 1.0), trajectory_dir=tmp_path)
        reporting.append_trajectory(_entry("aaa", 0.8), trajectory_dir=tmp_path)
        data = json.loads((tmp_path / "BENCH_demo.json").read_text())
        assert len(data["trajectory"]) == 1
        assert data["trajectory"][0]["timings_s"]["warm"] == 0.8

    def test_corrupt_file_restarts_history(self, tmp_path):
        (tmp_path / "BENCH_demo.json").write_text("{broken")
        reporting.append_trajectory(_entry("aaa", 1.0), trajectory_dir=tmp_path)
        data = json.loads((tmp_path / "BENCH_demo.json").read_text())
        assert len(data["trajectory"]) == 1

    def test_diffable_by_obs_report(self, tmp_path):
        from repro.obs.report import DiffThresholds, diff_summaries, load_summary

        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        pa = reporting.append_trajectory(_entry("aaa", 1.0), trajectory_dir=a_dir)
        reporting.append_trajectory(_entry("aaa", 1.0), trajectory_dir=b_dir)
        pb = reporting.append_trajectory(_entry("bbb", 1.5), trajectory_dir=b_dir)
        a, b = load_summary(pa), load_summary(pb)
        assert a["kind"] == "trajectory" and b["trajectory_len"] == 2
        rows = diff_summaries(a, b, DiffThresholds(timing_pct=10.0))
        warm = next(r for r in rows if r.metric == "timing/warm")
        assert warm.delta == pytest.approx(50.0)
        assert warm.breached


class TestWriteBenchRecordMirror:
    def test_record_and_trajectory_written(self, tmp_path):
        path = reporting.write_bench_record(
            "demo",
            timings_s={"warm": 1.0},
            workload={"n": 1},
            results_dir=tmp_path,
        )
        record = json.loads(path.read_text())
        assert record["bench"] == "demo"
        trajectory = json.loads((tmp_path / "trajectory" / "BENCH_demo.json").read_text())
        assert trajectory["trajectory"][0]["timings_s"] == {"warm": 1.0}

    def test_rerun_same_sha_keeps_single_entry(self, tmp_path):
        for warm in (1.0, 0.9):
            reporting.write_bench_record(
                "demo",
                timings_s={"warm": warm},
                workload={"n": 1},
                results_dir=tmp_path,
            )
        trajectory = json.loads((tmp_path / "trajectory" / "BENCH_demo.json").read_text())
        assert len(trajectory["trajectory"]) == 1  # same git sha -> replaced
        assert trajectory["trajectory"][0]["timings_s"]["warm"] == 0.9


def _git(repo: Path, *args: str) -> None:
    import subprocess

    subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org", *args],
        cwd=repo,
        check=True,
        capture_output=True,
    )


@pytest.fixture
def git_repo(tmp_path, monkeypatch):
    """A one-commit repository whose sha and dirty flag stamp records."""
    from repro.obs import manifest

    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "code.py").write_text("x = 1\n")
    _git(repo, "add", "code.py")
    _git(repo, "commit", "-q", "-m", "code")
    dirty = reporting.git_dirty
    monkeypatch.setattr(reporting, "git_sha", lambda: manifest.git_sha(repo))
    monkeypatch.setattr(reporting, "git_dirty", lambda: dirty(repo))
    return repo


class TestDirtyTree:
    def _record(self, tmp_path, warm):
        reporting.write_bench_record(
            "demo", timings_s={"warm": warm}, workload={"n": 1}, results_dir=tmp_path / "out"
        )
        path = tmp_path / "out" / "trajectory" / "BENCH_demo.json"
        return json.loads(path.read_text())["trajectory"]

    def test_clean_tree_is_stamped_clean(self, tmp_path, git_repo):
        (entry,) = self._record(tmp_path, 1.0)
        assert entry["git_dirty"] is False
        assert len(entry["git_sha"]) == 40

    def test_dirty_record_never_replaces_a_clean_entry(self, tmp_path, git_repo):
        (clean,) = self._record(tmp_path, 1.0)
        (git_repo / "code.py").write_text("x = 2\n")  # uncommitted edit
        history = self._record(tmp_path, 0.5)
        assert [(e["git_sha"], e["git_dirty"]) for e in history] == [
            (clean["git_sha"], False),
            (clean["git_sha"], True),
        ]
        assert history[0]["timings_s"]["warm"] == 1.0
        # A dirty re-run replaces the dirty entry only ...
        history = self._record(tmp_path, 0.4)
        assert [e["timings_s"]["warm"] for e in history] == [1.0, 0.4]
        # ... and a clean re-run of the sha replaces both.
        (git_repo / "code.py").write_text("x = 1\n")
        history = self._record(tmp_path, 0.9)
        assert [(e["git_dirty"], e["timings_s"]["warm"]) for e in history] == [(False, 0.9)]

    def test_untracked_files_do_not_mark_the_tree_dirty(self, git_repo):
        (git_repo / "scratch.txt").write_text("notes\n")
        assert reporting.git_dirty() is False
        (git_repo / "code.py").write_text("x = 3\n")
        assert reporting.git_dirty() is True

    def test_bench_record_files_do_not_mark_the_tree_dirty(self, git_repo):
        """A bench rewrites its own records; only other edits count."""
        records = [git_repo / "BENCH_demo.json", git_repo / "benchmarks/results/BENCH_demo.json"]
        records[1].parent.mkdir(parents=True)
        for path in records:
            path.write_text("{}\n")
        (git_repo / "benchmarks/results/notes.json").write_text("{}\n")
        _git(git_repo, "add", ".")
        _git(git_repo, "commit", "-q", "-m", "records")
        for path in records:
            path.write_text('{"edited": true}\n')
        assert reporting.git_dirty() is False
        assert _git_dirty_at(git_repo / "benchmarks") is False
        (git_repo / "benchmarks/results/notes.json").write_text("[]\n")
        assert reporting.git_dirty() is True
        (git_repo / "benchmarks/results/notes.json").write_text("{}\n")
        (git_repo / "code.py").write_text("x = 4\n")
        assert reporting.git_dirty() is True
