"""Streaming service throughput on the 108-satellite day.

Replays a dense grid-aligned Poisson request stream through the asyncio
:class:`~repro.serve.server.ServeServer` over the ``cached`` engine and
gates sustained completion throughput at 600k simulated requests per
wall-clock minute; the NumPy path itself clears 1M on this workload
(flat-graph routing memoized per time index, one grid bisection per
request, scalar fidelity fast paths). The engine is built over a one-hour contiguous
window of the paper's 108-satellite day (the same
``at_time_indices``-shard pattern the link-state bench uses), so the
stream revisits each grid sample many times and the memoized routing
trees — not link-budget recomputation — carry the load, which is the
steady-state shape of a long-running service.

Denial attribution is off: the flight-recorder cascade re-evaluates
candidate uplinks per denial (milliseconds each), which is diagnostic
machinery, not the serving hot path. Engine/cache build time is
measured separately and excluded from the throughput window.
"""

import asyncio
import time

import pytest

from repro.data.ground_nodes import all_ground_nodes
from repro.network.workload import (
    align_to_grid,
    lans_from_sites,
    poisson_request_stream,
)
from repro.serve import ServeServer, ServerConfig, build_engine

from reporting import write_bench_record

N_WINDOW_SAMPLES = 120  # one hour of the 30 s day grid
RATE_HZ = 6.0
SEED = 7
THROUGHPUT_FLOOR_PER_MIN = 600_000.0


@pytest.fixture(scope="module")
def day_window(full_ephemeris):
    return full_ephemeris.at_time_indices(range(N_WINDOW_SAMPLES))


@pytest.fixture(scope="module")
def stream(day_window):
    duration_s = float(day_window.times_s[-1])
    requests = poisson_request_stream(
        lans_from_sites(all_ground_nodes()),
        rate_hz=RATE_HZ,
        duration_s=duration_s,
        seed=SEED,
    )
    return align_to_grid(requests, day_window.times_s)


def test_serve_throughput_gate(day_window, stream):
    t0 = time.perf_counter()
    engine = build_engine("cached", day_window, attribute_denials=False)
    engine.advance_to(0.0)  # force the lazy link-state build out of the loop
    engine.submit(stream[0])
    t_build = time.perf_counter() - t0

    server = ServeServer(engine, config=ServerConfig(queue_depth=4096))
    report = asyncio.run(server.run(stream))
    assert report.accounting_ok
    assert report.n_shed == 0 and report.n_cancelled == 0
    assert len(report.outcomes) == len(stream)
    assert report.n_served > 0

    t1 = time.perf_counter()
    batched = engine.serve_batch(stream)
    t_batch = time.perf_counter() - t1
    assert len(batched) == len(stream)

    write_bench_record(
        "serve_throughput",
        timings_s={
            "build": t_build,
            "stream": report.wall_s,
            "batch": t_batch,
        },
        workload={
            "n_satellites": 108,
            "window_samples": N_WINDOW_SAMPLES,
            "rate_hz": RATE_HZ,
            "seed": SEED,
            "n_requests": len(stream),
            "engine": "cached",
            "attribute_denials": False,
        },
        speedup=report.requests_per_min / THROUGHPUT_FLOOR_PER_MIN,
        speedup_floor=1.0,
        extra={
            "requests_per_min": report.requests_per_min,
            "throughput_floor_per_min": THROUGHPUT_FLOOR_PER_MIN,
            "served_fraction": report.served_fraction,
            "latency_p50_s": report.latency_p50_s,
            "latency_p99_s": report.latency_p99_s,
            "max_queue_depth": report.max_queue_depth,
        },
    )
    assert report.requests_per_min >= THROUGHPUT_FLOOR_PER_MIN, (
        f"streaming throughput {report.requests_per_min:,.0f} req/min "
        f"below the {THROUGHPUT_FLOOR_PER_MIN:,.0f} floor"
    )
