"""Windowed (incremental-advance) serving vs the eager full-day engines.

``build_engine(..., window=N)`` must change *when* link physics is
computed, never *what* is computed: a windowed engine replaying a
time-ordered stream yields outcomes bit-identical to the eager engine's
batch path, with and without faults, serial and sharded.
Also pins the phase-span attribution satellite: a profiled windowed run
records time under propagate / budget / route / serve.
"""

import pytest

from repro.serve import build_engine, outcomes_equal
from repro.serve.sharded import serve_stream_sharded

WINDOWED_KINDS = ("cached",)  # direct has no precomputed state


class TestWindowedEquivalence:
    @pytest.mark.parametrize("kind", WINDOWED_KINDS)
    @pytest.mark.parametrize("window", [1, 16, 500])
    def test_streaming_matches_eager_batch(
        self, kind, window, small_ephemeris, aligned_stream
    ):
        eager = build_engine(kind, small_ephemeris)
        windowed = build_engine(kind, small_ephemeris, window=window)
        reference = eager.serve_batch(aligned_stream)
        streamed = []
        for request in aligned_stream:
            windowed.advance_to(request.t_s)
            streamed.append(windowed.submit(request))
        assert len(streamed) == len(reference)
        for a, b in zip(streamed, reference):
            assert outcomes_equal(a, b)

    @pytest.mark.parametrize("kind", WINDOWED_KINDS)
    def test_windowed_with_faults_matches_eager(
        self, kind, small_ephemeris, aligned_stream, mixed_schedule
    ):
        eager = build_engine(kind, small_ephemeris, faults=mixed_schedule)
        windowed = build_engine(
            kind, small_ephemeris, faults=mixed_schedule, window=8
        )
        reference = eager.serve_batch(aligned_stream)
        streamed = [windowed.submit(r) for r in aligned_stream]
        for a, b in zip(streamed, reference):
            assert outcomes_equal(a, b)

    def test_windowed_cached_is_lazy(self, small_ephemeris, aligned_stream):
        engine = build_engine("cached", small_ephemeris, window=8)
        early = [r for r in aligned_stream if r.t_s < 600.0][:3]
        assert early, "fixture stream should start within the first samples"
        for request in early:
            engine.advance_to(request.t_s)
            engine.submit(request)
        linkstate = engine.simulator.linkstate
        assert 0 < linkstate._built_upto < linkstate.n_times

    def test_sharded_windowed_matches_serial_eager(
        self, small_ephemeris, aligned_stream
    ):
        reference = serve_stream_sharded(
            small_ephemeris, aligned_stream, engine="cached", n_workers=0
        )
        windowed = serve_stream_sharded(
            small_ephemeris, aligned_stream, engine="cached", n_workers=0, window=8
        )
        assert len(windowed) == len(reference)
        for a, b in zip(windowed, reference):
            assert outcomes_equal(a, b)


class TestPhaseSpans:
    def test_windowed_stream_attributes_phases(
        self, small_ephemeris, aligned_stream, telemetry
    ):
        engine = build_engine("cached", small_ephemeris, window=8)
        for request in aligned_stream:
            engine.advance_to(request.t_s)
            engine.submit(request)
        paths = telemetry.profile().stats()
        assert "propagate" in paths
        assert "serve" in paths
        assert "serve/budget" in paths  # windowed fill, inside the serve span
        assert "serve/route" in paths
        assert paths["serve"].count == len(aligned_stream)
