"""Unit tests for :class:`SimulatorServeEngine` (``cached`` and ``direct``).

Covers construction, outcome shape and identity preservation, denial
attribution on/off, the monotonic time cursor
(:meth:`LinkStateCache.advance_index`) against the plain bisection rule,
the phase spans a profiled stream records, and :func:`outcomes_equal`
semantics.
"""

import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.obs.trace import CAUSES
from repro.quantum.fidelity import entanglement_fidelity_from_transmissivity
from repro.serve import ENGINE_KINDS, ServeOutcome, build_engine, outcomes_equal


@pytest.fixture(scope="module", params=ENGINE_KINDS)
def engine(request, small_ephemeris):
    return build_engine(request.param, small_ephemeris)


class TestBuildEngine:
    def test_unknown_kind_rejected(self, small_ephemeris):
        with pytest.raises(ValidationError):
            build_engine("warp", small_ephemeris)

    def test_name_matches_kind(self, engine):
        assert engine.name in ENGINE_KINDS

    def test_kinds_are_distinct(self, small_ephemeris):
        names = {build_engine(k, small_ephemeris).name for k in ENGINE_KINDS}
        assert names == set(ENGINE_KINDS)


class TestSubmit:
    def test_identity_preserved(self, engine, aligned_stream):
        request = aligned_stream[0]
        outcome = engine.submit(request)
        assert outcome.request_id == request.request_id
        assert outcome.source == request.source
        assert outcome.destination == request.destination
        assert outcome.t_s == request.t_s
        assert outcome.tenant == request.tenant

    def test_served_outcome_is_consistent(self, engine, aligned_stream):
        served = [o for o in map(engine.submit, aligned_stream) if o.served]
        assert served, "fixture stream should include at least one served request"
        for outcome in served:
            assert outcome.path[0] == outcome.source
            assert outcome.path[-1] == outcome.destination
            assert len(outcome.path) >= 3
            assert 0.0 < outcome.path_eta <= 1.0
            expected = float(
                entanglement_fidelity_from_transmissivity(outcome.path_eta)
            )
            assert outcome.fidelity == expected
            assert outcome.cause is None

    def test_denied_outcome_carries_canonical_cause(self, engine, aligned_stream):
        causes = set(CAUSES)
        denied = [o for o in map(engine.submit, aligned_stream) if not o.served]
        assert denied, "fixture stream should include at least one denial"
        for outcome in denied:
            assert outcome.path == ()
            assert outcome.path_eta == 0.0
            assert math.isnan(outcome.fidelity)
            assert outcome.cause in causes

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_attribution_off_leaves_cause_none(
        self, kind, small_ephemeris, aligned_stream
    ):
        engine = build_engine(kind, small_ephemeris, attribute_denials=False)
        denied = [o for o in map(engine.submit, aligned_stream) if not o.served]
        assert denied
        assert all(o.cause is None for o in denied)


class TestTimeCursor:
    """Monotonic cursors must match the plain most-recent-sample rule."""

    def _reference(self, times, t_s):
        idx = int(np.searchsorted(times, t_s, side="right") - 1)
        return min(max(idx, 0), times.size - 1)

    def _query_times(self, times, rng):
        forward = np.sort(rng.uniform(-30.0, times[-1] + 120.0, size=200))
        backtrack = rng.uniform(0.0, times[-1], size=50)
        return np.concatenate([forward, backtrack])

    def test_linkstate_cursor_matches_time_index(self, small_ephemeris):
        engine = build_engine("cached", small_ephemeris)
        linkstate = engine.simulator.linkstate
        times = linkstate.times_s
        rng = np.random.default_rng(6)
        for t in self._query_times(times, rng):
            expected = self._reference(times, float(t))
            assert linkstate.advance_index(float(t)) == expected
            assert linkstate.time_index(float(t)) == expected


class TestPhaseSpans:
    def test_stream_attributes_phases(self, small_ephemeris, aligned_stream, telemetry):
        """A profiled stream records time under propagate, serve and
        serve/route, one serve span per request."""
        engine = build_engine("cached", small_ephemeris)
        for request in aligned_stream:
            engine.advance_to(request.t_s)
            engine.submit(request)
        paths = telemetry.events.span_profile()
        assert "propagate" in paths
        assert "serve" in paths
        assert "serve/route" in paths
        assert paths["serve"]["count"] == len(aligned_stream)


class TestServeBatch:
    def test_batch_equals_per_request_submit(self, engine, aligned_stream):
        batched = engine.serve_batch(aligned_stream)
        singles = [engine.submit(r) for r in aligned_stream]
        assert len(batched) == len(singles)
        for a, b in zip(batched, singles):
            assert outcomes_equal(a, b)

    def test_groups_consecutive_equal_timestamps(self, small_ephemeris, aligned_stream):
        engine = build_engine("cached", small_ephemeris)
        calls = []
        original = engine._serve_group

        def spy(t_s, group):
            calls.append((t_s, len(group)))
            return original(t_s, group)

        engine._serve_group = spy
        engine.serve_batch(aligned_stream)
        assert sum(n for _, n in calls) == len(aligned_stream)
        assert [t for t, _ in calls] == sorted({r.t_s for r in aligned_stream})


class TestOutcomesEqual:
    def _outcome(self, **overrides):
        base = dict(
            request_id=0,
            source="ttu-0",
            destination="ornl-10",
            t_s=60.0,
            tenant="default",
            served=True,
            path=("ttu-0", "sat-004", "ornl-10"),
            path_eta=1e-3,
            fidelity=0.95,
            cause=None,
        )
        base.update(overrides)
        return ServeOutcome(**base)

    def test_identical(self):
        assert outcomes_equal(self._outcome(), self._outcome())

    def test_nan_fidelity_is_equal(self):
        a = self._outcome(served=False, path=(), path_eta=0.0, fidelity=float("nan"))
        b = a._replace()
        assert outcomes_equal(a, b)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("path_eta", 2e-3),
            ("fidelity", 0.96),
            ("served", False),
            ("cause", "low_elevation"),
            ("path", ("ttu-0", "sat-001", "ornl-10")),
            ("tenant", "other"),
        ],
    )
    def test_any_field_difference_detected(self, field, value):
        assert not outcomes_equal(self._outcome(), self._outcome(**{field: value}))
