"""Link-state denial attribution against the scalar cascade.

On the ``cached`` engine, :meth:`NetworkSimulator.denial_cause` reads
the cause cascade's gates (visible, elevation >= pi/9, healthy-usable,
fault-usable) from link-state columns at the request's grid sample;
the ``direct`` oracle re-evaluates every candidate channel through the
scalar object model. The two must name the identical cause for every
strict denial — exactly, with no tolerance at gate boundaries — on the
108-satellite day, healthy and under the committed example fault
schedule, and on a hybrid network
whose HAP flies a duty cycle.

With attribution on, the simulator decides the cause while it serves
the denial, so the cause on every streamed and batched outcome — and on
its flight record — must be the oracle's.
"""

from pathlib import Path

import pytest

from repro.channels.presets import paper_hap_fso, paper_satellite_fso
from repro.engine.linkstate import LinkStateCache
from repro.faults import FaultSchedule, SatelliteOutage, load_faults
from repro.network.hap import HAP
from repro.network.simulator import NetworkSimulator
from repro.network.topology import attach_hap, attach_satellites, build_qntn_ground_network
from repro.obs import events
from repro.obs.trace import DenialCause
from repro.serve import build_engine
from repro.utils.intervals import Interval

EXAMPLE_FAULTS = Path(__file__).parents[2] / "benchmarks" / "results" / "example_faults.json"


@pytest.fixture(scope="module", params=["healthy", "example-faults"])
def faults(request):
    if request.param == "healthy":
        return None
    return load_faults(EXAMPLE_FAULTS).realize(seed=7, horizon_s=86400.0).compile()


@pytest.fixture(scope="module")
def oracle(faults, day_ephemeris_108):
    """Memoized ``direct`` (scalar cascade) cause of one request."""
    sim = build_engine("direct", day_ephemeris_108, faults=faults).simulator
    memo = {}

    def cause(source, destination, t_s):
        key = (source, destination, t_s)
        if key not in memo:
            memo[key] = sim.denial_cause(*key)
        return memo[key]

    return cause


@pytest.mark.parametrize("build", ["eager"])  # the id keeps test ids stable
def test_cached_causes_equal_the_scalar_cascade(
    build, faults, oracle, day_ephemeris_108, day_stream_108
):
    """Every strict denial (the cached == direct suites pin that both
    engines deny the same requests) gets the oracle's cause."""
    engine = build_engine(
        "cached",
        day_ephemeris_108,
        faults=faults,
        attribute_denials=False,
    )
    sim = engine.simulator
    denied = [o for o in engine.serve_batch(day_stream_108) if not o.served]
    causes = set()
    for o in denied:
        got = sim.denial_cause(o.source, o.destination, o.t_s)
        assert got == oracle(o.source, o.destination, o.t_s), o
        causes.add(got)
    # Non-vacuous: the stream exercises more than one gate of the cascade.
    assert len(causes) >= 2


@pytest.mark.parametrize("attribute", [True, False], ids=["attributed", "unattributed"])
@pytest.mark.parametrize("build", ["eager"])  # the id keeps test ids stable
@pytest.mark.parametrize("shape", ["submit", "batch"])
def test_causes_decided_while_serving(
    shape, build, attribute, faults, oracle, day_ephemeris_108, day_stream_108
):
    """The outcome's own cause is the oracle's with attribution on, and
    ``None`` with it off (no strategy runs, so no denial is the
    strategy's)."""
    engine = build_engine(
        "cached",
        day_ephemeris_108,
        faults=faults,
        attribute_denials=attribute,
    )
    if shape == "submit":
        outcomes = [engine.submit(request) for request in day_stream_108]
    else:
        outcomes = engine.serve_batch(day_stream_108)
    denied = [o for o in outcomes if not o.served]
    assert denied
    for o in denied:
        expected = oracle(o.source, o.destination, o.t_s).value if attribute else None
        assert o.cause == expected, o


def test_flight_records_carry_the_outcome_cause(faults, day_ephemeris_108, day_stream_108):
    """With recording and attribution on, each denied flight record
    names the cause its outcome carries."""
    engine = build_engine(
        "cached", day_ephemeris_108, faults=faults, attribute_denials=True
    )
    with events.recording() as rec:
        outcomes = [engine.submit(request) for request in day_stream_108]
    flights = {
        r["trace"]: r["attrs"]
        for r in rec.records()
        if r["name"] == "request" and not r["attrs"]["served"]
    }
    denied = [o for o in outcomes if not o.served]
    assert denied and len(flights) == len(denied)
    for o in denied:
        assert flights[f"{o.source}|{o.destination}|{o.t_s!r}"]["cause"] == o.cause, o


@pytest.mark.parametrize("attribute", [True, False], ids=["attributed", "unattributed"])
@pytest.mark.parametrize(
    "kind, owner, verdicts",
    [
        ("cached", LinkStateCache, "platform_verdicts"),
        ("direct", NetworkSimulator, "_scalar_verdicts"),
    ],
    ids=["cached", "direct"],
)
def test_recorded_denial_judges_the_platforms_once(
    kind, owner, verdicts, attribute, monkeypatch, small_ephemeris, mixed_schedule,
    aligned_stream,
):
    """A recorded denial decides its cause and its flight record's
    candidate detail from one set of per-platform verdicts, and the
    record is the cascade's: its candidates and counts, and the cause
    the outcome carries (the cascade's when unattributed)."""
    engine = build_engine(
        kind, small_ephemeris, faults=mixed_schedule, attribute_denials=attribute
    )
    calls = []
    judge = getattr(owner, verdicts)

    def spy(self, *args):
        calls.append(args)
        return judge(self, *args)

    monkeypatch.setattr(owner, verdicts, spy)
    with events.recording() as rec:
        outcomes = [engine.submit(request) for request in aligned_stream]
    monkeypatch.undo()
    denied = [o for o in outcomes if not o.served]
    assert denied and len(calls) == len(denied)
    flights = {
        r["trace"]: r["attrs"]
        for r in rec.records()
        if r["name"] == "request" and not r["attrs"]["served"]
    }
    sim = engine.simulator
    for o in denied:
        attrs = flights[f"{o.source}|{o.destination}|{o.t_s!r}"]
        cause, candidates, counts = sim._attribute_denial(
            o.source, o.destination, o.t_s, events.MAX_CANDIDATES
        )
        expected = sim.denial_cause(o.source, o.destination, o.t_s).value
        assert cause.value == expected
        assert o.cause == (expected if attribute else None), o
        assert attrs["cause"] == expected
        assert attrs["candidates"] == candidates
        assert attrs["candidate_counts"] == counts


def test_hap_duty_cycle_causes_equal_the_scalar_cascade(small_ephemeris):
    """Hybrid network: static ground-HAP columns with a duty mask next
    to satellite columns, every LAN pair at every grid sample, with the
    HAP downed inside one of its duty windows."""
    plane = FaultSchedule(
        events=(SatelliteOutage(900.0, 1500.0, satellite="hap-0"),)
    ).compile()

    def simulator(use_cache):
        network = build_qntn_ground_network()
        attach_satellites(network, small_ephemeris, paper_satellite_fso())
        attach_hap(
            network,
            HAP(operational_windows=[Interval(0.0, 1800.0), Interval(3600.0, 5400.0)]),
            paper_hap_fso(),
        )
        return NetworkSimulator(network, use_cache=use_cache, faults=plane)

    cached, direct = simulator(True), simulator(False)
    heads = [members[0] for members in cached.network.local_networks.values()]
    pairs = [(a, b) for i, a in enumerate(heads) for b in heads[i + 1 :]]
    causes = set()
    for t in small_ephemeris.times_s:
        t = float(t)
        for outcome in cached.serve_requests(pairs, t):
            if outcome.served:
                continue
            expected = direct.denial_cause(outcome.source, outcome.destination, t)
            got = cached.denial_cause(outcome.source, outcome.destination, t)
            assert got == expected, (outcome.source, outcome.destination, t)
            causes.add(got)
    # The HAP is visible and elevated from every site: off duty it fails
    # the healthy-usable gate, downed on duty it is fault-blocked.
    assert {DenialCause.LOW_TRANSMISSIVITY, DenialCause.FAULT_OUTAGE} <= causes


def assert_records_equal(cached, direct, pairs, times):
    """Cause, candidate detail and counts of every pair at every time
    are the scalar cascade's, floats bit for bit; returns the causes."""
    causes, n_candidates = set(), 0
    for t in times:
        for source, destination in pairs:
            got = cached._attribute_denial(source, destination, t, events.MAX_CANDIDATES)
            expected = direct._attribute_denial(source, destination, t, events.MAX_CANDIDATES)
            assert got == expected, (source, destination, t)
            causes.add(got[0])
            n_candidates += len(got[1])
    assert n_candidates > 0
    return causes


def lan_head_pairs(network):
    heads = [members[0] for members in network.local_networks.values()]
    return [(a, b) for i, a in enumerate(heads) for b in heads[i + 1 :]]


def test_cached_flight_detail_equals_the_scalar_cascade(day_ephemeris_108):
    """The first hour of the 108-satellite day under the committed
    fault schedule: the cached engine reads each platform's verdicts
    from the gate bytes and evaluates only the candidates' channels."""
    plane = load_faults(EXAMPLE_FAULTS).realize(seed=7, horizon_s=86400.0).compile()
    cached = build_engine("cached", day_ephemeris_108, faults=plane).simulator
    direct = build_engine("direct", day_ephemeris_108, faults=plane).simulator
    times = [float(t) for t in day_ephemeris_108.times_s if t < 3600.0]
    causes = assert_records_equal(cached, direct, lan_head_pairs(cached.network), times)
    assert DenialCause.FAULT_OUTAGE in causes and len(causes) >= 2


def test_cached_flight_detail_on_a_duty_cycled_hap(small_ephemeris):
    plane = FaultSchedule(
        events=(SatelliteOutage(900.0, 1500.0, satellite="hap-0"),)
    ).compile()

    def simulator(use_cache):
        network = build_qntn_ground_network()
        attach_satellites(network, small_ephemeris, paper_satellite_fso())
        attach_hap(
            network,
            HAP(operational_windows=[Interval(0.0, 1800.0), Interval(3600.0, 5400.0)]),
            paper_hap_fso(),
        )
        return NetworkSimulator(network, use_cache=use_cache, faults=plane)

    cached, direct = simulator(True), simulator(False)
    times = [float(t) for t in small_ephemeris.times_s]
    causes = assert_records_equal(cached, direct, lan_head_pairs(cached.network), times)
    assert {DenialCause.LOW_TRANSMISSIVITY, DenialCause.FAULT_OUTAGE} <= causes
