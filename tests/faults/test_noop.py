"""The empty FaultSchedule is provably a bit-identical no-op everywhere."""

import numpy as np
import pytest

from repro.core.analysis import SpaceGroundAnalysis
from repro.core.sweeps import run_constellation_sweep
from repro.engine.budgets import LinkBudgetTable
from repro.faults import FaultSchedule

from tests.faults.conftest import make_sat_simulator, outcomes_equal

NOOP_PLANE = FaultSchedule().compile()


def test_consumers_drop_the_noop_plane(small_ephemeris, sites, fso_model, policy):
    table = LinkBudgetTable(small_ephemeris, sites, fso_model, policy=policy, faults=NOOP_PLANE)
    assert table.faults is None
    sim = make_sat_simulator(small_ephemeris, faults=NOOP_PLANE)
    assert sim.faults is None


def test_budget_table_bit_identical(small_ephemeris, sites, fso_model, policy, healthy_table):
    faulted = LinkBudgetTable(
        small_ephemeris, sites, fso_model, policy=policy, faults=NOOP_PLANE
    )
    for name in healthy_table.site_names[:4]:
        a = healthy_table.budget(name)
        b = faulted.budget(name)
        np.testing.assert_array_equal(a.transmissivity, b.transmissivity)
        np.testing.assert_array_equal(a.usable, b.usable)
        assert b.usable_healthy is None


def test_linkstate_cache_bit_identical(small_ephemeris):
    plain = make_sat_simulator(small_ephemeris, use_cache=True)
    noop = make_sat_simulator(small_ephemeris, faults=NOOP_PLANE, use_cache=True)
    ga = plain.linkstate
    gb = noop.linkstate
    assert ga._pairs == gb._pairs
    np.testing.assert_array_equal(ga._eta, gb._eta)
    np.testing.assert_array_equal(ga._gates, gb._gates)


@pytest.mark.parametrize("use_cache", [False, True])
def test_serving_bit_identical(small_ephemeris, sites, use_cache):
    pairs = [(sites[0].name, sites[-1].name), (sites[3].name, sites[20].name)]
    plain = make_sat_simulator(small_ephemeris, use_cache=use_cache)
    noop = make_sat_simulator(small_ephemeris, faults=NOOP_PLANE, use_cache=use_cache)
    for t in small_ephemeris.times_s[::10]:
        for a, b in zip(plain.serve_requests(pairs, float(t)), noop.serve_requests(pairs, float(t))):
            assert outcomes_equal(a, b)


def test_analysis_detail_has_no_fault_keys(small_ephemeris, sites, fso_model, policy):
    analysis = SpaceGroundAnalysis(
        small_ephemeris, sites, fso_model, policy=policy, faults=NOOP_PLANE
    )
    detail = analysis.request_detail(sites[0].name, sites[-1].name, 12)
    assert "healthy_usable" not in detail["candidate_counts"]
    assert all("faulted" not in c for c in detail["candidates"])


def test_sweep_with_empty_schedule_equals_no_faults(small_ephemeris, sites):
    kwargs = dict(
        sites=sites,
        ephemeris=small_ephemeris,
        duration_s=7200.0,
        step_s=60.0,
        n_requests=8,
        n_time_steps=6,
        seed=7,
    )
    plain = run_constellation_sweep([12], **kwargs)
    noop = run_constellation_sweep([12], faults=FaultSchedule().to_dict(), **kwargs)
    pa, pb = plain.points[0], noop.points[0]
    assert pa.coverage == pb.coverage
    sa, sb = pa.service, pb.service
    assert (sa.n_requests, sa.n_time_steps, sa.queue_drops) == (
        sb.n_requests,
        sb.n_time_steps,
        sb.queue_drops,
    )
    assert sa.served_per_step == sb.served_per_step
    assert sa.fidelities == sb.fidelities
    # mean_fidelity is NaN when nothing is served; NaN != NaN.
    assert sa.mean_fidelity == sb.mean_fidelity or (
        np.isnan(sa.mean_fidelity) and np.isnan(sb.mean_fidelity)
    )
