"""Shared fixtures: small, fast scenario objects reused across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channels.presets import paper_hap_fso, paper_satellite_fso
from repro.core.analysis import SpaceGroundAnalysis
from repro.data.ground_nodes import all_ground_nodes
from repro.network.hap import HAP
from repro.network.simulator import NetworkSimulator
from repro.network.topology import attach_hap, attach_satellites, build_qntn_ground_network
from repro.network.workload import (
    TimedRequest,
    align_to_grid,
    lans_from_sites,
    poisson_request_stream,
)
from repro.orbits.ephemeris import generate_movement_sheet
from repro.orbits.walker import qntn_constellation


def grid_stream(ephemeris, pairs, time_indices) -> list[TimedRequest]:
    """A grid x pairs service sweep as a time-ordered request stream.

    Every ``(source, destination)`` pair (or request with ``endpoints``)
    is requested at every listed ephemeris sample, in (sample, pair)
    order — the shape ``serve_stream_sharded`` shards by request id.
    """
    endpoints = [p.endpoints if hasattr(p, "endpoints") else tuple(p) for p in pairs]
    grid = [(float(ephemeris.times_s[i]), pair) for i in time_indices for pair in endpoints]
    return [TimedRequest(k, t_s, src, dst) for k, (t_s, (src, dst)) in enumerate(grid)]


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for stochastic tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_ephemeris():
    """A 12-satellite, 2-hour movement sheet at 60 s cadence (fast)."""
    return generate_movement_sheet(qntn_constellation(12), duration_s=7200.0, step_s=60.0)


@pytest.fixture(scope="session")
def day_ephemeris_36():
    """A 36-satellite, 1-day movement sheet at 120 s cadence."""
    return generate_movement_sheet(qntn_constellation(36), duration_s=86400.0, step_s=120.0)


@pytest.fixture(scope="session")
def day_ephemeris_108():
    """The paper's 108-satellite constellation over a full day.

    The 120 s cadence keeps the movement sheet cheap to build while
    preserving the day-long visibility pattern.
    """
    return generate_movement_sheet(
        qntn_constellation(108), duration_s=86400.0, step_s=120.0
    )


@pytest.fixture(scope="session")
def day_stream_108(day_ephemeris_108):
    """~80 grid-aligned inter-LAN requests spread over the day.

    Rate 1 mHz keeps the per-request direct backend affordable while
    still producing a double-digit rescue count at k=2 (the
    monotonicity tests assert the rescue leg is non-vacuous).
    """
    stream = poisson_request_stream(
        lans_from_sites(all_ground_nodes()),
        rate_hz=0.001,
        duration_s=86400.0,
        seed=11,
    )
    return align_to_grid(stream, day_ephemeris_108.times_s)


@pytest.fixture(scope="session")
def sites():
    """All 31 Table I ground nodes."""
    return list(all_ground_nodes())


@pytest.fixture(scope="session")
def hap_simulator() -> NetworkSimulator:
    """Object-level simulator of the air-ground architecture."""
    network = build_qntn_ground_network()
    attach_hap(network, HAP(), paper_hap_fso())
    return NetworkSimulator(network)


@pytest.fixture(scope="session")
def sat_simulator_small(small_ephemeris) -> NetworkSimulator:
    """Object-level simulator over the small 12-satellite constellation."""
    network = build_qntn_ground_network()
    attach_satellites(network, small_ephemeris, paper_satellite_fso())
    return NetworkSimulator(network)


@pytest.fixture(scope="session")
def sat_analysis_small(small_ephemeris) -> SpaceGroundAnalysis:
    """Vectorized analysis over the small constellation."""
    return SpaceGroundAnalysis(
        small_ephemeris, list(all_ground_nodes()), paper_satellite_fso()
    )
