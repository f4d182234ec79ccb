"""Tests for process-pool fan-out: the shard protocol and seeded sweeps."""

import os

import numpy as np
import pytest

from repro.core.requests import generate_requests
from repro.errors import ValidationError
from repro.parallel.sweep import (
    default_worker_count,
    parallel_map,
    parallel_sweep,
    run_shards,
)
from repro.serve import outcomes_equal, serve_stream_sharded

from tests.conftest import grid_stream


def square(x):
    return x * x


def seeded_draw(param, seed=None):
    rng = np.random.default_rng(seed)
    return (param, float(rng.random()))


def positions_at(ephemeris, block):
    """Shard work: each item's first-satellite x coordinate, plus the pid."""
    return [(i, float(ephemeris.positions_ecef_km[0, i, 0]), os.getpid()) for i in block]


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(square, [1, 2, 3], n_workers=0) == [1, 4, 9]

    def test_process_pool_path(self):
        assert parallel_map(square, [1, 2, 3, 4], n_workers=2) == [1, 4, 9, 16]

    def test_order_preserved_over_many_items(self):
        items = list(range(20))
        assert parallel_map(square, items, n_workers=2) == [x * x for x in items]

    def test_single_item_short_circuits(self):
        assert parallel_map(square, [7], n_workers=4) == [49]

    def test_rejects_bad_workers(self):
        with pytest.raises(ValidationError):
            parallel_map(square, [1], n_workers=-1)


class TestParallelSweep:
    def test_unseeded_calls_without_seed_kw(self):
        assert parallel_sweep(square, [2, 3], n_workers=0) == [4, 9]

    def test_seeded_results_reproducible(self):
        a = parallel_sweep(seeded_draw, ["x", "y", "z"], seed=11, n_workers=0)
        b = parallel_sweep(seeded_draw, ["x", "y", "z"], seed=11, n_workers=0)
        assert a == b

    def test_seeded_results_independent_of_worker_count(self):
        serial = parallel_sweep(seeded_draw, ["x", "y", "z"], seed=11, n_workers=0)
        pooled = parallel_sweep(seeded_draw, ["x", "y", "z"], seed=11, n_workers=2)
        assert serial == pooled

    def test_tasks_get_distinct_streams(self):
        result = parallel_sweep(seeded_draw, ["x", "y"], seed=11, n_workers=0)
        assert result[0][1] != result[1][1]


class TestRunShards:
    """The one shard path, independent of any caller's work."""

    def test_serial_equals_pooled_in_item_order(self, small_ephemeris):
        items = list(range(0, small_ephemeris.n_samples, 7))
        serial = run_shards(positions_at, small_ephemeris, items, n_workers=0)
        assert [row[0] for row in serial] == items
        for n_workers in (1, 2, 4):
            pooled = run_shards(positions_at, small_ephemeris, items, n_workers=n_workers)
            assert [row[:2] for row in pooled] == [row[:2] for row in serial]

    def test_pooled_blocks_run_in_other_processes(self, small_ephemeris):
        items = list(range(10))
        serial = run_shards(positions_at, small_ephemeris, items, n_workers=0, n_shards=3)
        assert {row[2] for row in serial} == {os.getpid()}
        pooled = run_shards(positions_at, small_ephemeris, items, n_workers=2)
        assert os.getpid() not in {row[2] for row in pooled}

    def test_rejects_negative_workers(self, small_ephemeris):
        with pytest.raises(ValidationError):
            run_shards(positions_at, small_ephemeris, [0, 1], n_workers=-3)

    def test_empty_items_return_empty(self, small_ephemeris):
        assert run_shards(positions_at, small_ephemeris, [], n_workers=2) == []


class TestParallelServiceSweep:
    """A grid x pairs service sweep, replayed as a grid-aligned stream
    through ``serve_stream_sharded``: results are independent of the
    worker and shard count."""

    @pytest.fixture(scope="class")
    def workload(self, sites):
        return generate_requests(sites, 10, 3)

    def _sweep(self, ephemeris, workload, step, **kwargs):
        stream = grid_stream(ephemeris, workload, range(0, ephemeris.n_samples, step))
        return stream, serve_stream_sharded(ephemeris, stream, **kwargs)

    def test_serial_vs_pool_identical(self, small_ephemeris, workload):
        _, serial = self._sweep(small_ephemeris, workload, 10, n_workers=0)
        _, pooled = self._sweep(small_ephemeris, workload, 10, n_workers=2)
        assert len(serial) == len(pooled)
        assert all(outcomes_equal(a, b) for a, b in zip(serial, pooled))

    def test_shard_count_does_not_change_results(self, small_ephemeris, workload):
        _, one = self._sweep(small_ephemeris, workload, 10, n_workers=0, n_shards=1)
        _, many = self._sweep(small_ephemeris, workload, 10, n_workers=0, n_shards=4)
        assert all(outcomes_equal(a, b) for a, b in zip(one, many))

    def test_cached_matches_direct(self, small_ephemeris, workload):
        _, cached = self._sweep(small_ephemeris, workload, 20, n_workers=0)
        _, direct = self._sweep(
            small_ephemeris, workload, 20, n_workers=0, engine="direct"
        )
        assert len(cached) == len(direct)
        assert all(outcomes_equal(a, b) for a, b in zip(cached, direct))

    def test_one_step_list_per_time_index(self, small_ephemeris, workload):
        stream = grid_stream(small_ephemeris, workload, [0, 30, 60])
        outcomes = serve_stream_sharded(small_ephemeris, stream, n_workers=2)
        assert [o.request_id for o in outcomes] == [r.request_id for r in stream]
        n = len(workload)
        steps = [outcomes[k : k + n] for k in range(0, len(outcomes), n)]
        assert len(steps) == 3
        assert [[(o.source, o.destination) for o in step] for step in steps] == [
            [r.endpoints for r in workload]
        ] * 3
        assert [{o.t_s for o in step} for step in steps] == [
            {float(small_ephemeris.times_s[i])} for i in (0, 30, 60)
        ]

    def test_empty_indices_returns_empty(self, small_ephemeris, workload):
        stream = grid_stream(small_ephemeris, workload, [])
        assert stream == []
        assert serve_stream_sharded(small_ephemeris, stream, n_workers=2) == []

    def test_rejects_negative_workers(self, small_ephemeris, workload):
        with pytest.raises(ValidationError):
            self._sweep(small_ephemeris, workload, 60, n_workers=-3)


class TestDefaultWorkerCount:
    def test_at_least_one(self):
        assert default_worker_count() >= 1
        assert default_worker_count() <= (os.cpu_count() or 2)


class TestServiceSweepTelemetry:
    """Cross-process metric aggregation and per-worker shard reports."""

    @pytest.fixture(scope="class")
    def stream(self, small_ephemeris, sites):
        return grid_stream(
            small_ephemeris,
            generate_requests(sites, 10, 3),
            range(0, small_ephemeris.n_samples, 20),
        )

    @pytest.fixture()
    def telemetry(self):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            yield obs
        finally:
            obs.disable()
            obs.reset()

    def _request_counts(self, obs):
        snap = obs.registry().snapshot()
        return (
            snap["network.requests.served"]["value"],
            snap["network.requests.denied"]["value"],
        )

    def test_pooled_counts_equal_serial(self, small_ephemeris, stream, telemetry):
        serve_stream_sharded(small_ephemeris, stream, n_workers=0)
        serial_counts = self._request_counts(telemetry)
        assert sum(serial_counts) == len(stream)
        telemetry.reset()
        serve_stream_sharded(small_ephemeris, stream, n_workers=2)
        assert self._request_counts(telemetry) == serial_counts

    def test_worker_reports_recorded_per_shard(self, small_ephemeris, stream, telemetry):
        serve_stream_sharded(small_ephemeris, stream, n_workers=2, n_shards=3)
        reports = telemetry.worker_reports()
        assert len(reports) == 3
        assert sum(r["n_items"] for r in reports) == len(stream)
        for r in reports:
            assert set(r) == {"pid", "first_index", "last_index", "n_items", "timings_s"}
            assert set(r["timings_s"]) == {"attach", "work", "total"}
            assert r["first_index"] <= r["last_index"]

    def test_disabled_sweep_records_nothing(self, small_ephemeris, stream):
        from repro import obs

        obs.reset()
        serve_stream_sharded(small_ephemeris, stream, n_workers=2)
        served, denied = self._request_counts(obs)
        assert (served, denied) == (0.0, 0.0)
        assert obs.worker_reports() == []
