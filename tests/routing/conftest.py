"""Fixtures for the multipath-strategy differential suite.

The equivalence harness runs the full 108-satellite paper constellation
over one day (120 s cadence keeps the movement sheet cheap to build
while preserving the day-long visibility pattern) and replays one
grid-aligned Poisson request stream through both serving engine kinds.
"""

from __future__ import annotations

import pytest

from repro.data.ground_nodes import all_ground_nodes
from repro.network.workload import (
    align_to_grid,
    lans_from_sites,
    poisson_request_stream,
)
from repro.orbits.ephemeris import generate_movement_sheet
from repro.orbits.walker import qntn_constellation


@pytest.fixture(scope="session")
def day_ephemeris_108():
    """The paper's 108-satellite constellation over a full day."""
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
def replays(day_ephemeris_108, day_stream_108):
    """Memoized serial replays, keyed ``(kind, strategy)``.

    The direct backend rebuilds its link graph per request (~45 s per
    pass over the day stream), and several tests compare against the
    same baseline — one serial replay per (kind, strategy) point is
    enough for all of them. Pooled replays are never memoized: worker
    independence is exactly what those tests measure.
    """
    from repro.serve import serve_stream_sharded

    memo = {}

    def run(kind, strategy=None):
        key = (kind, strategy)
        if key not in memo:
            memo[key] = serve_stream_sharded(
                day_ephemeris_108,
                day_stream_108,
                engine=kind,
                n_workers=0,
                strategy=strategy,
            )
        return memo[key]

    return run
