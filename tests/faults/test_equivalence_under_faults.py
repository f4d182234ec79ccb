"""Cached-vs-direct equivalence survives a mixed fault schedule.

DESIGN.md §7 pins the link-state cache to the direct evaluator; §11
requires the pin to hold under faults because both paths apply the same
:class:`~repro.faults.plane.FaultPlane` rule. The schedule here is built
around the small fixture's known traffic: ``sat-004`` relays every
cross-LAN served request of the 12-satellite/2-hour scenario, so an
all-horizon outage on it is guaranteed to degrade service.
"""

import math

import pytest

from repro.faults import (
    FaultSchedule,
    GroundStationDowntime,
    LinkFlap,
    SatelliteOutage,
    WeatherFade,
)

from tests.faults.conftest import make_sat_simulator

PAIRS = [("ttu-0", "ornl-10"), ("ttu-3", "ornl-0")]

MIXED = FaultSchedule(
    events=(
        SatelliteOutage(0.0, 7200.0, satellite="sat-004"),
        WeatherFade(0.0, 7200.0, site="ttu-0", extra_db=2.0),
        GroundStationDowntime(3000.0, 3600.0, station="ornl-0"),
        LinkFlap(0.0, 1800.0, node_a="ttu-3", node_b="sat-001"),
    )
)


def serve_all(sim, ephemeris):
    out = []
    for t in ephemeris.times_s:
        out.extend(sim.serve_requests(PAIRS, float(t)))
    return out


def test_cached_equals_direct_under_faults(small_ephemeris):
    plane = MIXED.compile()
    direct = serve_all(make_sat_simulator(small_ephemeris, faults=plane, use_cache=False), small_ephemeris)
    cached = serve_all(make_sat_simulator(small_ephemeris, faults=plane, use_cache=True), small_ephemeris)
    assert len(direct) == len(cached)
    for a, b in zip(direct, cached):
        assert (a.source, a.destination, a.t_s) == (b.source, b.destination, b.t_s)
        assert a.served == b.served
        assert a.path == b.path
        assert a.path_eta == pytest.approx(b.path_eta, rel=1e-12, abs=0.0)
        if math.isnan(a.fidelity):
            assert math.isnan(b.fidelity)
        else:
            assert a.fidelity == pytest.approx(b.fidelity, rel=1e-12, abs=0.0)


def test_schedule_degrades_service_monotonically(small_ephemeris):
    healthy = serve_all(make_sat_simulator(small_ephemeris), small_ephemeris)
    faulted = serve_all(make_sat_simulator(small_ephemeris, faults=MIXED.compile()), small_ephemeris)
    n_healthy = sum(o.served for o in healthy)
    n_faulted = sum(o.served for o in faulted)
    degraded = changed = 0
    for h, f in zip(healthy, faulted):
        # Faults only remove usable edges: a request served under faults
        # must have been served healthy too.
        assert h.served or not f.served
        if h.served and not f.served:
            degraded += 1
        elif h.served and f.path != h.path:
            changed += 1
    # The fixture is known to serve via sat-004, which the schedule kills.
    assert n_healthy > 0
    assert degraded + changed > 0
    assert n_faulted <= n_healthy


def test_killed_relay_never_appears_in_faulted_paths(small_ephemeris):
    faulted = serve_all(make_sat_simulator(small_ephemeris, faults=MIXED.compile()), small_ephemeris)
    for o in faulted:
        assert "sat-004" not in o.path
        if o.t_s < 1800.0 and o.served:
            assert ("ttu-3", "sat-001") not in zip(o.path, o.path[1:])
            assert ("sat-001", "ttu-3") not in zip(o.path, o.path[1:])
