"""Multipath-rescue service gain on the 108-satellite day (DESIGN.md §16).

Runs the paper's Fig. 7 service protocol (100 inter-LAN requests at 100
evaluation steps of the full-day ephemeris) through the production
``cached`` serving engine twice — once with the strict single-path
router, once with the ``k-shortest`` strategy rescuing denied requests
over relaxed-threshold path pairs — and gates the served-fraction
ratio. The gain is service, not wall time, so it is recorded under
``extra.service_gain`` rather than as a speedup: multipath must serve
strictly more than the 57.75 % baseline (observed 58.72 % -> 73.60 % at
k = 2 with 4 memory slots).

The monotonicity half of the strategy contract is asserted inline: no
strictly-served request may be lost, so the rescue count is exactly the
service delta.
"""

import time

import pytest

from repro.core.evaluation import evaluation_time_indices
from repro.core.requests import generate_requests
from repro.data.ground_nodes import all_ground_nodes
from repro.network.workload import TimedRequest
from repro.routing.strategies import StrategyConfig
from repro.serve import build_engine

from reporting import write_bench_record

N_REQUESTS = 100
N_TIME_STEPS = 100
K = 2
MEMORY_SLOTS = 4
#: Multipath served-fraction over baseline served-fraction; the strategy
#: contract guarantees >= 1.0, the gate demands a real gain.
SERVICE_GAIN_FLOOR = 1.05


def _serve(ephemeris, stream, strategy):
    """Outcomes of ``stream`` through a fresh ``cached`` engine, and the wall time."""
    t0 = time.perf_counter()
    engine = build_engine("cached", ephemeris, attribute_denials=False, strategy=strategy)
    outcomes = engine.serve_batch(stream)
    return outcomes, time.perf_counter() - t0


def test_multipath_service_gain_gate(full_ephemeris):
    pairs = [r.endpoints for r in generate_requests(all_ground_nodes(), N_REQUESTS, seed=7)]
    steps = evaluation_time_indices(full_ephemeris.times_s.size, N_TIME_STEPS)
    stream = [
        TimedRequest(i * len(pairs) + j, float(full_ephemeris.times_s[k]), src, dst)
        for i, k in enumerate(steps)
        for j, (src, dst) in enumerate(pairs)
    ]

    baseline, t_baseline = _serve(full_ephemeris, stream, None)
    multipath, t_multipath = _serve(
        full_ephemeris,
        stream,
        StrategyConfig(router="k-shortest", k=K, memory_slots=MEMORY_SLOTS),
    )
    for base, multi in zip(baseline, multipath):
        if base.served:  # monotone: strict service is never revisited
            assert multi.served and not multi.purified and multi.path == base.path
    n_baseline = sum(o.served for o in baseline)
    n_rescued = sum(o.purified for o in multipath if o.served)

    total = len(stream)
    baseline_frac = n_baseline / total
    multipath_frac = (n_baseline + n_rescued) / total
    gain = multipath_frac / baseline_frac
    write_bench_record(
        "multipath",
        timings_s={"baseline": t_baseline, "multipath": t_multipath},
        workload={
            "n_satellites": full_ephemeris.n_platforms,
            "n_requests": N_REQUESTS,
            "n_time_steps": N_TIME_STEPS,
            "engine": "cached",
            "router": "k-shortest",
            "k": K,
            "memory_slots": MEMORY_SLOTS,
        },
        speedup=None,
        extra={
            "baseline_served_pct": 100.0 * baseline_frac,
            "multipath_served_pct": 100.0 * multipath_frac,
            "n_rescued": n_rescued,
            "service_gain": gain,
            "service_gain_floor": SERVICE_GAIN_FLOOR,
        },
    )
    assert baseline_frac == pytest.approx(0.5775, abs=0.02)
    assert gain >= SERVICE_GAIN_FLOOR
