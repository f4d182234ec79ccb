"""Link-state cache vs direct simulator on the 108-satellite day sweep.

Times the paper's Figs. 7-8 workload — 100 random inter-LAN requests at
evaluation steps spread over the 108-satellite day — through the
object-level :class:`NetworkSimulator` twice: once on the direct scalar
path (per-channel ``evaluate`` + per-request Bellman–Ford) and once on
the :class:`~repro.engine.linkstate.LinkStateCache` path (one vectorized
link-budget pass, memoized routing tables). The acceptance floor is a 3x
speedup; outcome equivalence is asserted alongside the timing so the
speedup can never come from serving different requests.

The simulators see the ``at_time_indices`` slice of the day, so the
cache is built exactly over the steps it will serve — the full
2880-sample day through the direct path would take minutes per round.
"""

import time

import pytest

from repro.channels.presets import paper_satellite_fso
from repro.core.evaluation import evaluation_time_indices
from repro.core.requests import generate_requests
from repro.data.ground_nodes import all_ground_nodes
from repro.network.simulator import NetworkSimulator
from repro.network.topology import attach_satellites, build_qntn_ground_network
from repro.reporting.figures import FigureSeries

from reporting import write_bench_record

N_REQUESTS = 100
N_EVAL_STEPS = 12
SPEEDUP_FLOOR = 3.0


@pytest.fixture(scope="module")
def day_shard_network(full_ephemeris):
    """The QNTN network on the evaluation-step shard of the 108-sat day."""
    indices = evaluation_time_indices(full_ephemeris.n_samples, N_EVAL_STEPS)
    shard = full_ephemeris.at_time_indices(indices)
    network = build_qntn_ground_network()
    attach_satellites(network, shard, paper_satellite_fso())
    return network, shard


@pytest.fixture(scope="module")
def workload():
    return [r.endpoints for r in generate_requests(list(all_ground_nodes()), N_REQUESTS, 7)]


def serve_day(simulator, shard, workload):
    return [simulator.serve_requests(workload, float(t)) for t in shard.times_s]


def test_cached_day_sweep(benchmark, day_shard_network, workload):
    network, shard = day_shard_network
    outcomes = benchmark.pedantic(
        lambda: serve_day(NetworkSimulator(network, use_cache=True), shard, workload),
        rounds=1,
        iterations=1,
    )
    assert len(outcomes) == shard.n_samples


def test_direct_day_sweep(benchmark, day_shard_network, workload):
    network, shard = day_shard_network
    outcomes = benchmark.pedantic(
        lambda: serve_day(NetworkSimulator(network), shard, workload),
        rounds=1,
        iterations=1,
    )
    assert len(outcomes) == shard.n_samples


def test_cache_speedup_and_equivalence(day_shard_network, workload, emit_series):
    """The acceptance gate: >= 3x on identical outcomes."""
    network, shard = day_shard_network

    start = time.perf_counter()
    cached = serve_day(NetworkSimulator(network, use_cache=True), shard, workload)
    t_cached = time.perf_counter() - start

    start = time.perf_counter()
    direct = serve_day(NetworkSimulator(network), shard, workload)
    t_direct = time.perf_counter() - start

    for step_direct, step_cached in zip(direct, cached):
        for d, c in zip(step_direct, step_cached):
            assert d.served == c.served
            assert d.path == c.path
            if d.served:
                assert abs(d.path_eta - c.path_eta) <= 1e-12
                assert abs(d.fidelity - c.fidelity) <= 1e-12

    speedup = t_direct / t_cached
    emit_series(
        FigureSeries(
            name="bench_linkstate_cache",
            x_label="mode",  # 0 = direct, 1 = cached
            y_label="seconds",
            x=(0.0, 1.0),
            y=(t_direct, t_cached),
            meta={
                "workload": f"{N_REQUESTS} requests x {N_EVAL_STEPS} steps, 108 satellites",
                "speedup": f"{speedup:.1f}x",
                "floor": f"{SPEEDUP_FLOOR}x",
            },
        )
    )
    write_bench_record(
        "linkstate_cache",
        timings_s={"direct": t_direct, "cached": t_cached},
        workload={
            "n_requests": N_REQUESTS,
            "n_eval_steps": N_EVAL_STEPS,
            "n_satellites": 108,
        },
        speedup=speedup,
        speedup_floor=SPEEDUP_FLOOR,
    )
    assert speedup >= SPEEDUP_FLOOR, f"cache speedup {speedup:.1f}x below {SPEEDUP_FLOOR}x"
