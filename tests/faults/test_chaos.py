"""Chaos harness: property-based invariants over random fault schedules.

Hypothesis drives >= 200 random schedules (210 across the three
property tests) against the small fixture and asserts the §11
invariants: faults never raise a per-link budget eta or admit a link
the healthy run rejected; service under faults is a subset of healthy
service; a superset schedule never serves more than its subset; and
every denial carries exactly one canonical cause so served + Σcauses
covers the probe set. Shard determinism (serial == sharded, with and
without a worker pool) is pinned on fixed schedules.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.analysis import SpaceGroundAnalysis
from repro.data.ground_nodes import all_ground_nodes
from repro.faults import (
    FaultSchedule,
    GroundStationDowntime,
    LinkFlap,
    SatelliteOutage,
    WeatherFade,
)
from repro.obs.trace import DenialCause
from repro.serve import outcomes_equal, serve_stream_sharded

from tests.conftest import grid_stream

HORIZON_S = 7200.0
SAT_NAMES = [f"sat-{i:03d}" for i in range(12)]
SITE_NAMES = [node.name for node in all_ground_nodes()]
#: Cross-LAN probes the small fixture is known to serve (via sat-004)
#: plus one pair it mostly denies — both behaviors stay covered.
PROBES = [("ttu-0", "ornl-10"), ("ttu-3", "ornl-0"), ("epb-0", "ttu-1")]
PROBE_TIMES = [0, 12, 14, 60, 119]

CHAOS_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def windows(horizon: float = HORIZON_S):
    return st.tuples(
        st.floats(min_value=0.0, max_value=horizon),
        st.floats(min_value=0.0, max_value=horizon / 2),
    ).map(lambda p: (p[0], p[0] + p[1]))


def events():
    sat = st.sampled_from(SAT_NAMES)
    site = st.sampled_from(SITE_NAMES)
    return st.one_of(
        st.builds(
            lambda w, s: SatelliteOutage(w[0], w[1], satellite=s), windows(), sat
        ),
        st.builds(
            lambda w, s: GroundStationDowntime(w[0], w[1], station=s), windows(), site
        ),
        st.builds(
            lambda w, s, db: WeatherFade(w[0], w[1], site=s, extra_db=db),
            windows(),
            site,
            st.floats(min_value=0.0, max_value=20.0),
        ),
        st.builds(
            lambda w, a, b: LinkFlap(w[0], w[1], node_a=a, node_b=b), windows(), site, sat
        ),
    )


def schedules(max_events: int = 8):
    return st.lists(events(), max_size=max_events).map(
        lambda evs: FaultSchedule(events=tuple(evs))
    )


def served_probes(analysis: SpaceGroundAnalysis) -> set[tuple[str, str, int]]:
    hits = set()
    for t in PROBE_TIMES:
        for src, dst in PROBES:
            if analysis.request_detail(src, dst, t)["served"]:
                hits.add((src, dst, t))
    return hits


@settings(max_examples=100, **CHAOS_SETTINGS)
@given(schedule=schedules())
def test_budget_eta_and_usable_monotone(
    schedule, healthy_table, small_ephemeris, policy
):
    """Faults never raise a link eta or admit a link physics rejected."""
    plane = schedule.compile()
    for name in ("ttu-0", "ornl-10", "epb-0"):
        healthy = healthy_table.budget(name)
        faulted = plane.faulted_site_budget(healthy, small_ephemeris, policy)
        assert np.all(faulted.transmissivity <= healthy.transmissivity)
        assert not np.any(faulted.usable & ~healthy.usable)
        if plane.is_noop:
            assert faulted is healthy
        else:
            np.testing.assert_array_equal(faulted.healthy_usable, healthy.usable)


@settings(max_examples=60, **CHAOS_SETTINGS)
@given(schedule=schedules())
def test_service_monotone_and_denials_account(
    schedule, sat_analysis_small, small_ephemeris, sites, fso_model, policy
):
    """Faulted service ⊆ healthy service; served + Σcauses == probes."""
    plane = schedule.compile()
    faulted = SpaceGroundAnalysis(
        small_ephemeris,
        sites,
        fso_model,
        policy=policy,
        faults=None if plane.is_noop else plane,
    )
    healthy_hits = served_probes(sat_analysis_small)
    n_served = 0
    cause_totals = {c: 0 for c in DenialCause}
    for t in PROBE_TIMES:
        for src, dst in PROBES:
            detail = faulted.request_detail(src, dst, t)
            if detail["served"]:
                n_served += 1
                assert detail["cause"] is None
                assert (src, dst, t) in healthy_hits
            else:
                assert isinstance(detail["cause"], DenialCause)
                cause_totals[detail["cause"]] += 1
            counts = detail["candidate_counts"]
            healthy_usable = counts.get("healthy_usable", counts["usable"])
            assert counts["usable"] <= healthy_usable <= counts["elevation_ok"]
            for cand in detail["candidates"]:
                if cand.get("faulted"):
                    assert not cand["usable"]
    assert n_served + sum(cause_totals.values()) == len(PROBES) * len(PROBE_TIMES)
    if plane.is_noop:
        assert cause_totals[DenialCause.FAULT_OUTAGE] == 0
        assert n_served == len(healthy_hits)


@settings(max_examples=50, **CHAOS_SETTINGS)
@given(first=schedules(max_events=4), extra=schedules(max_events=4))
def test_superset_schedule_never_serves_more(
    first, extra, small_ephemeris, sites, fso_model, policy
):
    """Adding events to a schedule can only remove served probes."""

    def analyse(schedule):
        plane = schedule.compile()
        return served_probes(
            SpaceGroundAnalysis(
                small_ephemeris,
                sites,
                fso_model,
                policy=policy,
                faults=None if plane.is_noop else plane,
            )
        )

    assert analyse(first.union(extra)) <= analyse(first)


FIXED_SCHEDULES = [
    FaultSchedule(),
    FaultSchedule(events=(SatelliteOutage(0.0, HORIZON_S, satellite="sat-004"),)),
    FaultSchedule(
        events=(
            WeatherFade(0.0, HORIZON_S, site="ttu-0", extra_db=2.5),
            GroundStationDowntime(600.0, 1800.0, station="ornl-0"),
            LinkFlap(0.0, 900.0, node_a="ttu-3", node_b="sat-001"),
        )
    ),
]


def _probe_replay(ephemeris, schedule, **kwargs):
    stream = grid_stream(ephemeris, PROBES, [0, 12, 13, 14, 60])
    return serve_stream_sharded(ephemeris, stream, faults=schedule, **kwargs)


@pytest.mark.parametrize("schedule", FIXED_SCHEDULES, ids=["empty", "outage", "mixed"])
def test_serial_equals_sharded(schedule, small_ephemeris):
    """Shard-count never changes faulted outcomes."""
    serial = _probe_replay(small_ephemeris, schedule, n_workers=0, n_shards=1)
    sharded = _probe_replay(small_ephemeris, schedule, n_workers=0, n_shards=3)
    assert len(serial) == len(sharded) == len(PROBES) * 5
    for a, b in zip(serial, sharded):
        assert outcomes_equal(a, b), (a, b)


def test_serial_equals_pooled(small_ephemeris):
    """A real worker pool reproduces the serial faulted outcomes."""
    for schedule in FIXED_SCHEDULES:
        serial = _probe_replay(small_ephemeris, schedule, n_workers=0, n_shards=2)
        pooled = _probe_replay(small_ephemeris, schedule, n_workers=2, n_shards=2)
        assert len(serial) == len(pooled) == len(PROBES) * 5
        for a, b in zip(serial, pooled):
            assert outcomes_equal(a, b), (schedule, a, b)


@settings(max_examples=25, **CHAOS_SETTINGS)
@given(schedule=schedules(max_events=5))
def test_multipath_serial_equals_sharded_under_chaos(schedule, small_ephemeris):
    """Serial == sharded cause totals under --router k-shortest and
    random fault schedules: the rescue layer keeps outcomes pure
    functions of (source, destination, t), so shard boundaries cannot
    move a request between served / route_exhausted / memory_full."""
    from collections import Counter

    from repro.network.workload import (
        align_to_grid,
        lans_from_sites,
        poisson_request_stream,
    )
    from repro.routing.strategies import StrategyConfig

    stream = align_to_grid(
        poisson_request_stream(
            lans_from_sites(all_ground_nodes()),
            rate_hz=0.005,
            duration_s=HORIZON_S,
            seed=11,
        ),
        small_ephemeris.times_s,
    )
    realized = schedule.realize(seed=3, horizon_s=HORIZON_S)
    strategy = StrategyConfig(router="k-shortest", k=2)
    replays = [
        serve_stream_sharded(
            small_ephemeris,
            stream,
            engine="cached",
            faults=realized,
            strategy=strategy,
            n_workers=0,
            n_shards=n_shards,
        )
        for n_shards in (1, 3)
    ]
    serial, sharded = replays
    assert len(serial) == len(sharded) == len(stream)
    for a, b in zip(serial, sharded):
        assert outcomes_equal(a, b), (a, b)
    causes = [
        Counter(o.cause for o in replay if not o.served) for replay in replays
    ]
    assert causes[0] == causes[1]
