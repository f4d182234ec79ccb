"""Differential harness for the multipath strategy (DESIGN.md §16).

The guarantees this file pins, on the full 108-satellite paper day:

* **k = 1 is the identity.** Mounting the k-shortest strategy with
  ``k = 1`` leaves each engine kind's outcome stream bit-identical to
  the legacy Bellman–Ford router — served set, paths, etas, fidelities and
  per-cause denial totals all match exactly.
* **k >= 2 is monotone.** Strict-path service is untouched: every
  request the baseline serves stays served over the *same* path with
  the *same* fidelity, and the rescue layer only converts denials into
  purified service. On this workload the rescue count is strictly
  positive, so the monotonicity leg is not vacuous.
* **Streaming == batch** survives the rescue layer on both engine kinds
  (the batch tail and the per-request tail are distinct code paths).
* **Production == oracle.** At ``k = 2`` the ``cached`` engine serves,
  rescues and denies exactly what the ``direct`` oracle does.
* **Shard determinism.** Under the active strategy the sharded replay
  is independent of worker count (0 / 1 / 2 / 4), including the
  strategy-specific denial causes.
"""

import asyncio
import collections

import pytest

from repro.routing.strategies import StrategyConfig
from repro.serve import (
    ENGINE_KINDS,
    ServeServer,
    ServerConfig,
    build_engine,
    outcomes_equal,
    serve_stream_sharded,
)

K1 = StrategyConfig(router="k-shortest", k=1)
K2 = StrategyConfig(router="k-shortest", k=2)


def cause_totals(outcomes):
    return collections.Counter(o.cause for o in outcomes if not o.served)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_k1_bit_identical_to_legacy_router(kind, replays, day_stream_108):
    """The strategy at k=1 never intervenes: outcomes match field-wise."""
    legacy = replays(kind)
    routed = replays(kind, K1)
    assert len(legacy) == len(routed) == len(day_stream_108)
    for a, b in zip(legacy, routed):
        assert outcomes_equal(a, b), (a, b)
    assert cause_totals(legacy) == cause_totals(routed)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_k2_service_is_monotone_over_baseline(kind, replays):
    """Baseline service survives unchanged; rescues only add service."""
    legacy = replays(kind)
    routed = replays(kind, K2)
    n_rescued = 0
    for base, multi in zip(legacy, routed):
        if base.served:
            # The strict path is never memory-gated or re-routed.
            assert multi.served
            assert multi.path == base.path
            assert multi.path_eta == base.path_eta
            assert abs(multi.fidelity - base.fidelity) <= 1e-12
            assert not multi.purified
        elif multi.served:
            n_rescued += 1
            assert multi.purified
            assert multi.n_paths >= 2
            assert multi.fidelity >= 0.0
    assert n_rescued > 0, "workload never exercised the rescue layer"
    n_base = sum(o.served for o in legacy)
    n_multi = sum(o.served for o in routed)
    assert n_multi == n_base + n_rescued


def test_k2_cached_matches_direct_oracle(replays):
    """The production engine's rescues are the oracle's rescues."""
    cached = replays("cached", K2)
    direct = replays("direct", K2)
    assert len(cached) == len(direct)
    for a, b in zip(cached, direct):
        assert (a.served, a.path, a.cause, a.n_paths, a.purified) == (
            b.served,
            b.path,
            b.cause,
            b.n_paths,
            b.purified,
        ), (a, b)
        if a.served:
            # Vectorized vs scalar float op ordering: round-off only.
            assert a.path_eta == pytest.approx(b.path_eta, rel=1e-9, abs=0.0)
            assert a.fidelity == pytest.approx(b.fidelity, rel=1e-9, abs=0.0)


def test_k2_denials_carry_strategy_causes(replays):
    """Unrescued denials attribute route_exhausted / legacy causes only."""
    routed = replays("cached", K2)
    causes = cause_totals(routed)
    assert None not in causes
    allowed = {
        "low_elevation",
        "low_transmissivity",
        "no_route",
        "route_exhausted",
        "memory_full",
        "unknown_node",
    }
    assert set(causes) <= allowed


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_sharded_replay_is_worker_count_independent(
    n_workers, replays, day_ephemeris_108, day_stream_108
):
    """Serial == sharded under the active strategy, any pool size."""
    serial = replays("cached", K2)
    pooled = serve_stream_sharded(
        day_ephemeris_108,
        day_stream_108,
        engine="cached",
        strategy=K2,
        n_workers=n_workers,
        n_shards=4,
    )
    assert len(serial) == len(pooled)
    for a, b in zip(serial, pooled):
        assert outcomes_equal(a, b), (a, b)
    assert cause_totals(serial) == cause_totals(pooled)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_streaming_equals_batch_under_strategy(
    kind, replays, day_ephemeris_108, day_stream_108
):
    """The rescue layer preserves the streaming == batch guarantee.

    The memoized replay IS the streamed path (serial sharded replay
    runs through :class:`ServeServer`); the batch side uses a fresh
    engine so the per-request and batch denial tails cannot drift.
    """
    streamed = replays(kind, K2)
    batched = build_engine(kind, day_ephemeris_108, strategy=K2).serve_batch(
        day_stream_108
    )
    assert len(streamed) == len(batched)
    for a, b in zip(streamed, batched):
        assert outcomes_equal(a, b), (a, b)


def test_server_front_end_records_rescue_attrs(day_ephemeris_108, day_stream_108):
    """A direct ServeServer run agrees with the sharded replay and the
    report's cause accounting includes the strategy causes."""
    engine = build_engine("cached", day_ephemeris_108, strategy=K2)
    server = ServeServer(
        engine,
        config=ServerConfig(queue_depth=len(day_stream_108) + 1, shed_on_full=False),
    )
    report = asyncio.run(server.run(day_stream_108))
    assert report.accounting_ok
    assert report.n_served == sum(o.served for o in report.outcomes)
    assert set(report.cause_counts) == set(cause_totals(report.outcomes))


def test_k2_cached_candidates_match_direct_oracle(replays, day_stream_108):
    """Every strict denial's rescue enumerates the same candidates on
    both engines: Yen over the link state's relaxed CSR graph and Yen
    over ``FlatGraph`` of the direct path's scalar relaxed graph. Each
    replay records its rescues' candidate lists, one per strict denial."""
    denied = [r for r, o in zip(day_stream_108, replays("cached")) if not o.served]
    cached, direct = replays.candidates("cached", K2), replays.candidates("direct", K2)
    assert len(cached) == len(direct) == len(denied)
    for a, b in zip(cached, direct):
        assert [(c.path, c.interiors) for c in a] == [(c.path, c.interiors) for c in b]
        for ca, cb in zip(a, b):
            # Vectorized vs scalar link physics: round-off only.
            assert ca.eta == pytest.approx(cb.eta, rel=1e-9, abs=0.0)
    assert sum(len(a) >= 2 for a in cached) > 0, "no rescue had two candidates"
