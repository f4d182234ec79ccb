"""Fixtures for the multipath-strategy differential suite.

The equivalence harness replays the shared 108-satellite day stream
(``day_stream_108``, top-level conftest) through both serving engine
kinds.
"""

from __future__ import annotations

import pytest

from repro.routing.strategies import KShortestStrategy
from repro.serve import serve_stream_sharded


class Replays:
    """Serial replays, one per input for the whole session.

    An input is the engine kind, the request stream (default: the day
    stream), the link policy, the fault plane and the strategy. The
    direct oracle rebuilds its link graph per request (~8 s per pass over
    the day stream), and several tests read the same replay, so each
    input is replayed once. A replay also records the candidate list of
    every multipath rescue (each :meth:`KShortestStrategy.candidates`
    call, in stream order), so comparing candidates serves nothing
    again. Pooled replays are never memoized: worker independence is
    exactly what those tests measure.
    """

    def __init__(self, ephemeris, stream) -> None:
        self._ephemeris, self._stream = ephemeris, tuple(stream)
        self._memo: dict[tuple, tuple[list, list]] = {}

    def _replay(self, kind, strategy, stream, policy, faults) -> tuple[list, list]:
        stream = self._stream if stream is None else tuple(stream)
        key = (kind, stream, policy, faults, strategy)
        if key not in self._memo:
            rescues = []
            enumerate_once = KShortestStrategy.candidates

            def candidates(strategy, pair, epoch, enumerate_pair):
                found = enumerate_once(strategy, pair, epoch, enumerate_pair)
                rescues.append(found)
                return found

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(KShortestStrategy, "candidates", candidates)
                outcomes = serve_stream_sharded(
                    self._ephemeris,
                    list(stream),
                    engine=kind,
                    n_workers=0,
                    policy=policy,
                    faults=faults,
                    strategy=strategy,
                )
            self._memo[key] = (outcomes, rescues)
        return self._memo[key]

    def __call__(self, kind, strategy=None, *, stream=None, policy=None, faults=None) -> list:
        """The outcomes of a replay."""
        return self._replay(kind, strategy, stream, policy, faults)[0]

    def candidates(self, kind, strategy, *, stream=None, policy=None, faults=None) -> list:
        """The candidate list of each rescue of a replay, in order."""
        return self._replay(kind, strategy, stream, policy, faults)[1]


@pytest.fixture(scope="session")
def replays(day_ephemeris_108, day_stream_108):
    """Memoized serial replays (:class:`Replays`)."""
    return Replays(day_ephemeris_108, day_stream_108)
