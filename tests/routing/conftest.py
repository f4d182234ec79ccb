"""Fixtures for the multipath-strategy differential suite.

The equivalence harness replays the shared 108-satellite day stream
(``day_stream_108``, top-level conftest) through both serving engine
kinds.
"""

from __future__ import annotations

import pytest


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
