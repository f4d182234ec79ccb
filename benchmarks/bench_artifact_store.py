"""Artifact store warm-vs-cold + shared-memory dispatch on the paper day.

Two gates on the 108-satellite, 2880-sample day workload:

* **Warm-vs-cold >= 5x.** A cold run propagates the constellation,
  derives all 31 sites' link-budget matrices, and persists everything
  into a fresh content-addressed store; a warm run (new store instance,
  same cache dir) must reproduce the identical artifacts from disk at
  least five times faster. Equivalence is asserted alongside the timing:
  the paper's Figs. 7-8 request workload served from the cached matrices
  must match the rebuilt ones relay-for-relay (served/path exact,
  eta/fidelity to 1e-12), so the speedup can never come from serving
  different physics.
* **Shared-memory bit-identity.** ``serve_stream_sharded`` replaying
  the paper's request pairs at evaluation steps of the day — pooled, so
  the ephemeris travels through shared memory — must return
  outcome-for-outcome identical results across 1, 2 and 4 workers, and
  identical to the serial in-process replay. The per-worker dispatch
  payload (pickled ephemeris vs pickled shm handle) is measured, gated
  at >= 100x smaller, and recorded in the bench record.

Results land in ``BENCH_artifact_store.json`` (wall times, speedup,
payload bytes, git SHA) for PR-over-PR tracking.
"""

import pickle
import time

import pytest

from repro.channels.presets import paper_satellite_fso
from repro.core.analysis import SpaceGroundAnalysis
from repro.core.evaluation import evaluation_time_indices
from repro.core.requests import generate_requests
from repro.data.ground_nodes import all_ground_nodes
from repro.engine.store import ArtifactStore
from repro.network.workload import TimedRequest
from repro.orbits.walker import qntn_constellation
from repro.parallel.shm import ShmArena, publish_ephemeris
from repro.quantum.fidelity import entanglement_fidelity_from_transmissivity
from repro.reporting.figures import FigureSeries
from repro.serve import outcomes_equal, serve_stream_sharded

from reporting import write_bench_record

N_SATELLITES = 108
DURATION_S = 86400.0
STEP_S = 30.0
N_REQUESTS = 100
N_EVAL_STEPS = 12
SPEEDUP_FLOOR = 5.0
SHM_EVAL_STEPS = 8
SHM_REQUESTS = 25


def _build_day_workload(store: ArtifactStore):
    """Cold/warm unit of work: day ephemeris + all 31 site budget tables."""
    ephemeris = store.get_or_build_ephemeris(
        qntn_constellation(N_SATELLITES), duration_s=DURATION_S, step_s=STEP_S
    )
    table = store.get_or_build_budget_table(
        ephemeris, list(all_ground_nodes()), paper_satellite_fso()
    )
    table.compute_all()
    return ephemeris, table


def _serve_workload(table):
    """(relay index, eta) per request per evaluation step, from one table."""
    analysis = SpaceGroundAnalysis(
        table.ephemeris,
        table.sites,
        table.fso_model,
        policy=table.policy,
        budgets=table,
    )
    pairs = [
        r.endpoints
        for r in generate_requests(list(all_ground_nodes()), N_REQUESTS, 7)
    ]
    indices = evaluation_time_indices(table.ephemeris.n_samples, N_EVAL_STEPS)
    return [
        [analysis.best_relay(src, dst, int(t)) for src, dst in pairs]
        for t in indices
    ]


def test_store_warm_vs_cold(tmp_path, emit_series):
    """The acceptance gate: warm >= 5x cold, identical served physics."""
    cache_dir = tmp_path / "store"

    start = time.perf_counter()
    _, cold_table = _build_day_workload(ArtifactStore(cache_dir))
    t_cold = time.perf_counter() - start

    warm_store = ArtifactStore(cache_dir)
    start = time.perf_counter()
    _, warm_table = _build_day_workload(warm_store)
    t_warm = time.perf_counter() - start

    assert warm_store.stats.misses == 0 and warm_store.stats.rebuilds == 0, (
        "warm run was not fully served from the store"
    )

    # Equivalence: the paper workload served from rebuilt vs cached
    # matrices — relay choice and admission exact, eta/fidelity to 1e-12.
    rebuilt = _serve_workload(cold_table)
    cached = _serve_workload(warm_table)
    for step_rebuilt, step_cached in zip(rebuilt, cached):
        for hit_r, hit_c in zip(step_rebuilt, step_cached):
            assert (hit_r is None) == (hit_c is None)
            if hit_r is not None:
                assert hit_r[0] == hit_c[0]  # relay satellite: exact
                assert abs(hit_r[1] - hit_c[1]) <= 1e-12
                f_r = float(entanglement_fidelity_from_transmissivity(hit_r[1]))
                f_c = float(entanglement_fidelity_from_transmissivity(hit_c[1]))
                assert abs(f_r - f_c) <= 1e-12

    speedup = t_cold / t_warm
    emit_series(
        FigureSeries(
            name="bench_artifact_store",
            x_label="mode",  # 0 = cold, 1 = warm
            y_label="seconds",
            x=(0.0, 1.0),
            y=(t_cold, t_warm),
            meta={
                "workload": f"{N_SATELLITES} satellites x 1 day @ {STEP_S:.0f}s, "
                f"{len(all_ground_nodes())} sites",
                "speedup": f"{speedup:.1f}x",
                "floor": f"{SPEEDUP_FLOOR}x",
            },
        )
    )
    write_bench_record(
        "artifact_store",
        timings_s={"cold": t_cold, "warm": t_warm},
        workload={
            "n_satellites": N_SATELLITES,
            "duration_s": DURATION_S,
            "step_s": STEP_S,
            "n_sites": len(all_ground_nodes()),
            "n_requests": N_REQUESTS,
            "n_eval_steps": N_EVAL_STEPS,
        },
        speedup=speedup,
        speedup_floor=SPEEDUP_FLOOR,
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm run {speedup:.1f}x faster than cold, below the {SPEEDUP_FLOOR}x floor"
    )


@pytest.fixture(scope="module")
def shm_workload(full_ephemeris):
    """Every request pair at every evaluation step, as one time-ordered stream."""
    pairs = [
        r.endpoints
        for r in generate_requests(list(all_ground_nodes()), SHM_REQUESTS, 7)
    ]
    indices = evaluation_time_indices(full_ephemeris.n_samples, SHM_EVAL_STEPS)
    grid = [(float(full_ephemeris.times_s[i]), pair) for i in indices for pair in pairs]
    stream = [TimedRequest(k, t_s, src, dst) for k, (t_s, (src, dst)) in enumerate(grid)]
    return full_ephemeris, stream


def test_shm_sweep_bit_identical_across_workers(shm_workload):
    """The second gate: shm dispatch changes nothing but the transport."""
    ephemeris, stream = shm_workload
    baseline = serve_stream_sharded(ephemeris, stream, n_workers=0)
    assert len(baseline) == len(stream)
    for n_workers in (1, 2, 4):
        pooled = serve_stream_sharded(ephemeris, stream, n_workers=n_workers)
        assert len(pooled) == len(baseline) and all(
            outcomes_equal(a, b) for a, b in zip(pooled, baseline)
        ), f"shared-memory replay diverged at n_workers={n_workers}"


def test_shm_dispatch_payload(shm_workload):
    """Per-worker dispatch payload: the shm handle vs the pickled ephemeris."""
    ephemeris, _ = shm_workload

    pickled_ephemeris = len(pickle.dumps(ephemeris))
    with ShmArena() as arena:
        handle = publish_ephemeris(arena, ephemeris)
        pickled_handle = len(pickle.dumps(handle))
    assert pickled_handle < pickled_ephemeris / 100, (
        "shm handle should be orders of magnitude smaller than the array pickle"
    )
    write_bench_record(
        "shm_dispatch",
        timings_s={},
        workload={
            "n_satellites": N_SATELLITES,
            "n_requests": SHM_REQUESTS,
            "n_eval_steps": SHM_EVAL_STEPS,
        },
        extra={
            "dispatch_bytes_pickle": pickled_ephemeris,
            "dispatch_bytes_shm_handle": pickled_handle,
            "payload_reduction": f"{pickled_ephemeris / pickled_handle:.0f}x",
        },
    )
