"""``faults.link_steps.suppressed`` counts each faulted link step once.

The counter adds the (channel, sample) cells a fault plane suppresses
while the link state is built. The k-shortest rescue admits at a lower
threshold on that same link state, so serving a stream with it must
count exactly what the shortest-path router counts.
"""

from pathlib import Path

import pytest

from repro import obs
from repro.data.ground_nodes import all_ground_nodes
from repro.faults import load_faults
from repro.network.workload import align_to_grid, lans_from_sites, poisson_request_stream
from repro.orbits.ephemeris import generate_movement_sheet
from repro.orbits.walker import qntn_constellation
from repro.routing.strategies import StrategyConfig
from repro.serve import build_engine

EXAMPLE_FAULTS = Path(__file__).parents[2] / "benchmarks" / "results" / "example_faults.json"


@pytest.fixture
def telemetry():
    obs.reset()
    obs.enable()
    try:
        yield
    finally:
        obs.disable()
        obs.reset()


@pytest.fixture(scope="module")
def hour():
    """36 satellites over one hour at 60 s, and a grid-aligned stream."""
    ephemeris = generate_movement_sheet(
        qntn_constellation(36), duration_s=3600.0, step_s=60.0
    )
    stream = poisson_request_stream(
        lans_from_sites(all_ground_nodes()), rate_hz=0.05, duration_s=3600.0, seed=7
    )
    return ephemeris, align_to_grid(stream, ephemeris.times_s)


def serve(hour, router):
    ephemeris, stream = hour
    faults = load_faults(EXAMPLE_FAULTS).realize(seed=7, horizon_s=86400.0)
    engine = build_engine(
        "cached",
        ephemeris,
        faults=faults,
        strategy=StrategyConfig(router=router, k=2),
    )
    counter = obs.counter("faults.link_steps.suppressed")
    before = counter.value
    outcomes = engine.serve_batch(stream)
    return counter.value - before, outcomes


@pytest.mark.parametrize("build", ["eager"])  # the id keeps test ids stable
def test_rescue_does_not_recount_suppressed_steps(telemetry, hour, build):
    shortest, base = serve(hour, "shortest")
    k_shortest, rescued = serve(hour, "k-shortest")
    assert shortest > 0
    assert any(not o.served for o in base), "no denial, so no rescue ran"
    assert any(o.purified for o in rescued)
    assert k_shortest == shortest
