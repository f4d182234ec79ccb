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

The worker protocol mirrors ``repro.parallel.sweep._service_shard``:
the ephemeris travels through shared memory when pooled, each worker
reports its metrics delta and an optional trace-shard payload, and the
parent folds both back in.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any, Sequence

from repro import obs
from repro.errors import ValidationError
from repro.parallel.partition import block_partition
from repro.parallel.shm import (
    EphemerisHandle,
    ShmArena,
    ShmAttachment,
    attach_ephemeris,
    publish_ephemeris,
)
from repro.parallel.sweep import default_worker_count, parallel_map
from repro.routing.metrics import DEFAULT_EPSILON
from repro.serve.engine import ServeOutcome, build_engine
from repro.serve.server import ServeServer, ServerConfig

__all__ = ["serve_stream_sharded"]


def _serve_stream_shard(args: tuple) -> tuple[list[ServeOutcome], dict[str, Any]]:
    """Worker task: replay one contiguous request block through a fresh engine."""
    (
        ephemeris,
        requests,
        kind,
        fso_model,
        policy,
        convention,
        epsilon,
        attribute_denials,
        fault_schedule,
        obs_enabled,
        queue_depth,
        trace_cfg,
        window,
        events_cfg,
        strategy,
    ) = args
    from repro.obs import events, trace
    from repro.obs.metrics import metrics_delta

    if obs_enabled:
        obs.enable()
    if trace_cfg is not None:
        trace.reset_for_worker()
        trace.start_shard(trace_cfg)
    if events_cfg is not None:
        events.reset_for_worker()
        events.start_shard(events_cfg)
    baseline = obs.registry().snapshot()
    t0 = time.perf_counter()
    attachment = ShmAttachment()
    try:
        if isinstance(ephemeris, EphemerisHandle):
            ephemeris = attach_ephemeris(ephemeris, attachment)
        engine = build_engine(
            kind,
            ephemeris,
            fso_model=fso_model,
            policy=policy,
            faults=fault_schedule,
            epsilon=epsilon,
            fidelity_convention=convention,
            attribute_denials=attribute_denials,
            window=window,
            strategy=strategy,
        )
        t_build = time.perf_counter()
        server = ServeServer(
            engine,
            config=ServerConfig(queue_depth=queue_depth, shed_on_full=False),
        )
        stream_report = asyncio.run(server.run(requests))
    finally:
        attachment.close()
    t_serve = time.perf_counter()
    report = {
        "pid": os.getpid(),
        "first_request_id": int(requests[0].request_id) if requests else -1,
        "last_request_id": int(requests[-1].request_id) if requests else -1,
        "n_requests": len(requests),
        "timings_s": {
            "build": t_build - t0,
            "serve": t_serve - t_build,
            "total": t_serve - t0,
        },
        "metrics": metrics_delta(obs.registry().snapshot(), baseline),
    }
    if trace_cfg is not None:
        report["trace"] = trace.finish_shard()
    if events_cfg is not None:
        report["events"] = events.finish_shard()
    return list(stream_report.outcomes), report


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
    use_shm: bool | None = None,
    window: int | None = None,
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
        use_shm: ship the ephemeris via shared memory (default: whenever
            a pool is used).
        window: incremental-advance chunk size forwarded to each
            worker's :func:`~repro.serve.engine.build_engine`; a worker
            only fills link state over the samples its block actually
            visits.
        strategy: optional
            :class:`~repro.routing.strategies.StrategyConfig`; every
            worker mounts an identical multipath router. Rescue
            decisions are pure per request, so outcomes stay
            independent of the worker count under any strategy.

    Returns:
        One :class:`ServeOutcome` per request, in ``request_id`` order,
        independent of ``n_workers``.
    """
    if n_workers is None:
        n_workers = default_worker_count()
    stream = list(requests)
    if not stream:
        return []
    if faults is not None:
        if getattr(faults, "is_empty", False):
            faults = None
        elif not getattr(faults, "is_realized", True):
            raise ValidationError(
                "serve_stream_sharded needs a realized FaultSchedule "
                "(call schedule.realize(seed=...) first)"
            )
    from repro.obs import events, trace

    shards = n_shards if n_shards is not None else max(n_workers, 1)
    shards = min(shards, len(stream))
    blocks = [block for block in block_partition(stream, shards) if block]
    pooled = n_workers > 0 and len(blocks) > 1
    if use_shm is None:
        use_shm = pooled
    arena = ShmArena() if (use_shm and pooled) else None
    try:
        payload: Any = (
            publish_ephemeris(arena, ephemeris) if arena is not None else ephemeris
        )
        tasks = [
            (
                payload,
                block,
                engine,
                fso_model,
                policy,
                fidelity_convention,
                epsilon,
                attribute_denials,
                faults,
                obs.enabled(),
                queue_depth,
                trace.shard_config(int(block[0].request_id)) if pooled else None,
                window,
                events.shard_config(int(block[0].request_id)) if pooled else None,
                strategy,
            )
            for block in blocks
        ]
        t_dispatch_us = events.now_us()
        shard_outputs = parallel_map(_serve_stream_shard, tasks, n_workers=n_workers)
    finally:
        if arena is not None:
            arena.close()
    timeline = events.active()
    outcomes: list[ServeOutcome] = []
    for block_outcomes, report in shard_outputs:
        outcomes.extend(block_outcomes)
        metrics = report.pop("metrics", None)
        if pooled and metrics:
            obs.registry().merge(metrics)
        trace.absorb_shard(report.pop("trace", None))
        events_payload = report.pop("events", None)
        if timeline is not None and events_payload is not None:
            # Parent-side dispatch span per shard: the Perfetto export
            # attaches a flow arrow from it to the shard's first event,
            # tying the cross-process timelines together.
            timeline.complete(
                "dispatch",
                begin_us=t_dispatch_us,
                end_us=events.now_us(),
                attrs={"shard": int(events_payload.get("shard", 0))},
            )
        events.absorb_shard(events_payload)
        obs.record_worker_report(report)
    return outcomes
