"""Accounting invariants of the flight records against the real pipelines.

The recording is only trustworthy if its books balance: every request is
served or carries exactly one canonical cause, the recorded coverage
fraction reproduces ``core.coverage`` bit-for-bit, and a sharded
parallel run merges to the same totals as the serial run.
"""

from __future__ import annotations

import pytest

from repro.core.requests import generate_requests
from repro.core.sweeps import run_constellation_sweep
from repro.obs import events
from repro.obs.trace import CAUSES, DenialCause

from tests.conftest import grid_stream


@pytest.fixture(autouse=True)
def _no_active_recorder():
    events.reset_for_worker()
    yield
    events.reset_for_worker()


def _request_roots(records):
    """Flight records: the attrs of every root ``request`` event."""
    return [
        r["attrs"]
        for r in records
        if r["name"] == "request" and "trace" in r and "parent" not in r
    ]


def _assert_books_balance(summary):
    req = summary["requests"]
    assert req["served"] + sum(req["causes"].values()) == req["total"]
    assert set(req["causes"]) == set(CAUSES)
    for pair in req["by_lan_pair"].values():
        cause_total = sum(v for k, v in pair.items() if k in CAUSES)
        assert pair["served"] + cause_total == pair["total"]


SWEEP_KW = dict(step_s=600.0, n_requests=4, n_time_steps=4, seed=7)


class TestTracedConstellationSweep:
    @pytest.fixture(scope="class")
    def traced_sweep(self):
        with events.recording() as rec:
            sweep = run_constellation_sweep(sizes=[6, 12], **SWEEP_KW)
            summary = rec.summary()
        return sweep, summary

    def test_served_plus_causes_equals_total(self, traced_sweep):
        _, summary = traced_sweep
        _assert_books_balance(summary)
        assert summary["requests"]["total"] == 4 * 4  # requests x steps

    def test_served_pct_matches_sweep_point(self, traced_sweep):
        sweep, summary = traced_sweep
        full = sweep.points[-1]  # trace records the full-size row
        assert summary["requests"]["served_pct"] == pytest.approx(
            full.service.served_percentage, abs=1e-12
        )

    def test_mean_fidelity_matches_sweep_point(self, traced_sweep):
        sweep, summary = traced_sweep
        full = sweep.points[-1]
        if summary["requests"]["mean_fidelity"] is None:
            pytest.skip("no served request in the reduced workload")
        assert summary["requests"]["mean_fidelity"] == pytest.approx(
            full.service.mean_fidelity, abs=1e-12
        )

    def test_coverage_matches_core_coverage_to_1e12(self, traced_sweep):
        sweep, summary = traced_sweep
        full = sweep.points[-1]
        cov = summary["coverage"]
        assert cov["percentage"] == pytest.approx(full.coverage.percentage, abs=1e-12)
        assert cov["covered_s"] == pytest.approx(
            full.coverage.total_minutes * 60.0, abs=1e-9
        )

    def test_every_denial_has_exactly_one_canonical_cause(self):
        with events.recording() as rec:
            run_constellation_sweep(sizes=[12], **SWEEP_KW)
            records = rec.records()
        requests = _request_roots(records)
        assert requests, "expected request records"
        for record in requests:
            if record["served"]:
                assert "cause" not in record
            else:
                assert record["cause"] in CAUSES

    def test_sharded_sweep_merges_to_serial_totals(self):
        with events.recording() as rec:
            run_constellation_sweep(sizes=[12], **SWEEP_KW)
            serial = rec.summary()
        with events.recording() as rec:
            run_constellation_sweep(sizes=[12], n_workers=2, **SWEEP_KW)
            sharded = rec.summary()
        _assert_books_balance(sharded)
        assert sharded["requests"]["causes"] == serial["requests"]["causes"]
        assert sharded["requests"]["served"] == serial["requests"]["served"]
        assert sharded["requests"]["by_lan_pair"] == serial["requests"]["by_lan_pair"]
        assert sharded["satellites"] == serial["satellites"]


class TestTracedSimulatorSweep:
    """The object-level (Dijkstra) serving path, serial vs sharded: a
    grid x pairs sweep replayed through ``serve_stream_sharded``."""

    def _run(self, ephemeris, requests, n_workers):
        from repro.serve.sharded import serve_stream_sharded

        stream = grid_stream(ephemeris, requests, range(0, ephemeris.n_samples, 30))
        with events.recording() as rec:
            serve_stream_sharded(ephemeris, stream, n_workers=n_workers)
            return rec.summary()

    def test_serial_books_balance(self, small_ephemeris, sites):
        requests = generate_requests(sites, 6, 3)
        summary = self._run(small_ephemeris, requests, n_workers=0)
        _assert_books_balance(summary)
        assert summary["requests"]["total"] == 6 * 4  # requests x indices

    def test_shard_traces_merge_to_serial_cause_totals(self, small_ephemeris, sites):
        requests = generate_requests(sites, 6, 3)
        serial = self._run(small_ephemeris, requests, n_workers=0)
        pooled = self._run(small_ephemeris, requests, n_workers=2)
        _assert_books_balance(pooled)
        assert pooled["requests"]["causes"] == serial["requests"]["causes"]
        assert pooled["requests"]["served"] == serial["requests"]["served"]
        assert pooled["requests"]["by_lan_pair"] == serial["requests"]["by_lan_pair"]


class TestDispatchSpans:
    """Both callers of the shard path record one parent-side ``dispatch``
    span per pooled shard, naming the shard it dispatched."""

    def _dispatches(self, run):
        with events.recording() as rec:
            run()
            records = rec.records()
        return [r["attrs"]["shard"] for r in records if r["name"] == "dispatch"]

    def test_pooled_constellation_sweep(self):
        shards = self._dispatches(
            lambda: run_constellation_sweep(sizes=[6, 12], n_workers=2, **SWEEP_KW)
        )
        assert len(shards) == len(set(shards)) == 2

    def test_pooled_serve_stream(self, small_ephemeris, sites):
        from repro.serve.sharded import serve_stream_sharded

        stream = grid_stream(small_ephemeris, generate_requests(sites, 6, 3), [0, 30, 60])
        shards = self._dispatches(
            lambda: serve_stream_sharded(small_ephemeris, stream, n_workers=2)
        )
        assert len(shards) == len(set(shards)) == 2

    def test_in_process_runs_record_none(self):
        shards = self._dispatches(
            lambda: run_constellation_sweep(sizes=[6, 12], n_workers=0, **SWEEP_KW)
        )
        assert shards == []


class TestRequestDetailConsistency:
    """request_detail must agree with serve() on the same budget matrices."""

    def test_served_and_eta_match_serve(self, sat_analysis_small):
        analysis = sat_analysis_small
        pairs = [("ornl-1", "epb-1"), ("ttu-0", "ornl-3")]
        for t_idx in (0, 40, 80):
            etas = analysis.serve(pairs, t_idx)
            for (src, dst), eta in zip(pairs, etas):
                detail = analysis.request_detail(src, dst, t_idx)
                assert detail["served"] == (eta is not None)
                if eta is not None:
                    assert detail["path_eta"] == pytest.approx(eta, abs=1e-15)
                    assert detail["relay"] is not None
                    assert detail["cause"] is None
                else:
                    assert isinstance(detail["cause"], DenialCause)

    def test_candidate_counts_nest(self, sat_analysis_small):
        detail = sat_analysis_small.request_detail("ornl-1", "epb-1", 40)
        counts = detail["candidate_counts"]
        assert counts["platforms"] >= counts["visible"] >= counts["elevation_ok"]
        assert counts["elevation_ok"] >= counts["usable"]


class TestTracedSimulatorRequests:
    def test_simulator_denials_attributed(self, sat_simulator_small, sites):
        requests = [r.endpoints for r in generate_requests(sites, 8, 5)]
        with events.recording() as rec:
            sat_simulator_small.serve_requests(requests, 0.0)
            records = _request_roots(rec.records())
        assert len(records) == 8
        for record in records:
            if not record["served"]:
                assert record["cause"] in CAUSES
                assert record["candidate_counts"]["platforms"] > 0
            else:
                assert record["path"][0] == record["source"]
                assert record["path"][-1] == record["destination"]
                assert len(record["hop_etas"]) == len(record["path"]) - 1


class TestStreamCarriesTheFlightRecord:
    """Re-reading a file-backed recording and absorbing it into a fresh
    recorder reproduces every flight analytic: the stream alone carries
    the flight record, no side channel."""

    DIGEST_KEYS = ("requests", "satellites", "coverage", "steps")

    def _replayed(self, path):
        fresh = events.EventRecorder()
        for record in events.read_events(path):
            fresh.absorb(record)
        return fresh.summary()

    def _assert_replay_matches(self, summary, path):
        replayed = self._replayed(path)
        for key in self.DIGEST_KEYS:
            assert replayed.get(key) == summary.get(key), key
        assert summary["requests"]["total"] > 0

    def test_traced_constellation_sweep(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with events.recording(path) as rec:
            run_constellation_sweep(sizes=[6, 12], n_workers=2, **SWEEP_KW)
            summary = rec.summary()
        assert "coverage" in summary and "steps" in summary
        self._assert_replay_matches(summary, path)

    def test_two_worker_serve_stream(self, tmp_path, small_ephemeris):
        from repro.data.ground_nodes import all_ground_nodes
        from repro.network.workload import (
            align_to_grid,
            lans_from_sites,
            poisson_request_stream,
        )
        from repro.serve.sharded import serve_stream_sharded

        stream = align_to_grid(
            poisson_request_stream(
                lans_from_sites(all_ground_nodes()),
                rate_hz=0.01,
                duration_s=7200.0,
                seed=11,
                tenants=("tenant-0", "tenant-1"),
            ),
            small_ephemeris.times_s,
        )
        path = tmp_path / "serve.jsonl"
        with events.recording(path) as rec:
            outcomes = serve_stream_sharded(small_ephemeris, stream, n_workers=2)
            summary = rec.summary()
        assert summary["requests"]["total"] == len(outcomes)
        assert summary["requests"]["served"] == sum(o.served for o in outcomes)
        self._assert_replay_matches(summary, path)
