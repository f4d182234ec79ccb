"""Sharded stream replay: one request stream, many worker processes.

A time-ordered request stream is block-partitioned (contiguous runs of
``request_id``) across worker processes; each worker builds its own
engine over the *full* movement sheet — time quantization must see the
whole grid, a sliced ephemeris would clamp differently at block edges —
and replays its block through a local :class:`~repro.serve.server.ServeServer`
in backpressure mode (no shedding, so outcomes are pure engine physics).
Blocks are gathered in input order, which makes the result independent
of worker count: ``n_workers=0`` (serial, in-process) and any pool size
produce identical outcome lists — the serial == sharded leg of the
differential harness.

The fan-out, the shared-memory transport of the ephemeris and the
telemetry hand-back are :func:`repro.parallel.sweep.run_shards`; this
module supplies only the per-block work.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Any, Sequence

from repro.errors import ValidationError
from repro.parallel.sweep import run_shards
from repro.routing.metrics import DEFAULT_EPSILON
from repro.serve.engine import ServeOutcome, build_engine
from repro.serve.server import ServeServer, ServerConfig

__all__ = ["serve_stream_sharded"]


def _serve_block(
    ephemeris: Any,
    requests: list[Any],
    *,
    kind: str,
    queue_depth: int,
    **engine_kwargs: Any,
) -> list[ServeOutcome]:
    """Replay one contiguous request block through a fresh engine."""
    engine = build_engine(kind, ephemeris, **engine_kwargs)
    server = ServeServer(
        engine, config=ServerConfig(queue_depth=queue_depth, shed_on_full=False)
    )
    return list(asyncio.run(server.run(requests)).outcomes)


def serve_stream_sharded(
    ephemeris: Any,
    requests: Sequence[Any],
    *,
    engine: str = "cached",
    n_workers: int | None = 0,
    n_shards: int | None = None,
    fso_model: Any = None,
    policy: Any = None,
    fidelity_convention: str = "sqrt",
    epsilon: float = DEFAULT_EPSILON,
    attribute_denials: bool = True,
    faults: Any = None,
    queue_depth: int = 1024,
    strategy: Any = None,
) -> list[ServeOutcome]:
    """Replay a timestamped request stream across worker processes.

    Args:
        ephemeris: constellation movement sheet (shared by every worker).
        requests: time-ordered :class:`~repro.network.workload.TimedRequest`
            records.
        engine: engine kind (``cached`` / ``direct``).
        n_workers: process count; 0 (default) replays serially in-process.
        n_shards: contiguous request blocks (default: one per worker).
        fso_model / policy / fidelity_convention / epsilon /
        attribute_denials: engine knobs, identical across workers.
        faults: optional realized :class:`~repro.faults.FaultSchedule`
            (each worker compiles the identical plane) or a compiled
            ``FaultPlane``.
        queue_depth: per-tenant admission queue size inside each worker.
        strategy: optional
            :class:`~repro.routing.strategies.StrategyConfig`; every
            worker mounts an identical multipath router. Rescue
            decisions are pure per request, so outcomes stay
            independent of the worker count under any strategy.

    Returns:
        One :class:`ServeOutcome` per request, in ``request_id`` order,
        independent of ``n_workers``.
    """
    if faults is not None:
        if getattr(faults, "is_empty", False):
            faults = None
        elif not getattr(faults, "is_realized", True):
            raise ValidationError(
                "serve_stream_sharded needs a realized FaultSchedule "
                "(call schedule.realize(seed=...) first)"
            )
    work = partial(
        _serve_block,
        kind=engine,
        queue_depth=queue_depth,
        fso_model=fso_model,
        policy=policy,
        faults=faults,
        epsilon=epsilon,
        fidelity_convention=fidelity_convention,
        attribute_denials=attribute_denials,
        strategy=strategy,
    )
    return run_shards(work, ephemeris, requests, n_workers=n_workers, n_shards=n_shards)
