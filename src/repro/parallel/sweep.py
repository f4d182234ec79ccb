"""Process-pool fan-out: one shard protocol plus seeded parameter sweeps.

``run_shards`` is the one way work leaves the parent process. It
block-partitions an item list, runs a module-level work function over
each block — in-process when ``n_workers`` is 0, otherwise over a
process pool — and gathers results in item order, so the output is
independent of the worker count. When (and only when) the blocks run in
a pool, the large shared input (a movement sheet or a link-budget table)
travels through the zero-copy plane of :mod:`repro.parallel.shm` and
every worker receives a descriptor a few hundred bytes long. The
telemetry protocol lives here too: each shard reports its metrics delta
and timings, and a pooled shard of a recorded run ships its recording
back for the parent to merge. ``serve.sharded.serve_stream_sharded`` and
``core.sweeps.run_constellation_sweep`` are its callers.

``parallel_sweep`` hands every task its own spawned RNG stream (results
are independent of worker count and scheduling) and gathers results in
input order — scatter/compute/gather, the shape of an MPI collective
pipeline. ``parallel_map`` with ``n_workers=0`` runs serially in-process.
Tasks must be picklable module-level callables (or ``functools.partial``
objects over one).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from repro import obs
from repro.errors import ValidationError
from repro.obs import events
from repro.obs.metrics import metrics_delta
from repro.orbits.ephemeris import Ephemeris
from repro.parallel.partition import partition_bounds
from repro.parallel.shm import (
    BudgetTableHandle,
    EphemerisHandle,
    ShmArena,
    ShmAttachment,
    attach_budget_table,
    attach_ephemeris,
    publish_budget_table,
    publish_ephemeris,
)

__all__ = [
    "parallel_map",
    "parallel_sweep",
    "run_shards",
    "default_worker_count",
]

T = TypeVar("T")
R = TypeVar("R")


def default_worker_count() -> int:
    """A sane process count: physical parallelism minus one, at least 1."""
    return max((os.cpu_count() or 2) - 1, 1)


def _resolve_workers(n_workers: int | None) -> int:
    if n_workers is None:
        return default_worker_count()
    if n_workers < 0:
        raise ValidationError(f"n_workers must be >= 0, got {n_workers}")
    return n_workers


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    n_workers: int | None = None,
) -> list[R]:
    """Order-preserving map over a process pool.

    Args:
        fn: picklable callable.
        items: inputs.
        n_workers: process count; ``0`` runs serially in-process (useful
            under profilers and in tests), ``None`` picks a default.
    """
    n_workers = _resolve_workers(n_workers)
    if n_workers == 0 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))


def _run_shard(task: tuple) -> tuple[list[Any], dict[str, Any]]:
    """Worker side of :func:`run_shards`: run ``work`` over one block.

    Returns ``(results, report)``. The report carries the shard's pid,
    index range, timings and the delta of this process' metrics over the
    shard (snapshot at exit minus snapshot at entry — correct under both
    fork, where the child inherits parent counts, and spawn, where it
    starts from zero). A pooled task of a recorded run records into its
    own shard recorder (never through a fork-inherited one, whose file
    descriptor the parent shares) and ships the payload under
    ``"events"``; an in-process task gets no shard config and records
    straight into the parent's recorder.
    """
    work, payload, block, first, obs_enabled, events_cfg = task
    if obs_enabled:
        obs.enable()
    events.start_shard(events_cfg)
    baseline = obs.registry().snapshot()
    t0 = time.perf_counter()
    with ShmAttachment() as attachment:
        if isinstance(payload, EphemerisHandle):
            shared = attach_ephemeris(payload, attachment)
        elif isinstance(payload, BudgetTableHandle):
            shared = attach_budget_table(payload, attachment)
        else:
            shared = payload
        t_attach = time.perf_counter()
        results = work(shared, block)
    t_done = time.perf_counter()
    report = {
        "pid": os.getpid(),
        "first_index": first,
        "last_index": first + len(block) - 1,
        "n_items": len(block),
        "timings_s": {
            "attach": t_attach - t0,
            "work": t_done - t_attach,
            "total": t_done - t0,
        },
        "metrics": metrics_delta(obs.registry().snapshot(), baseline),
    }
    if events_cfg is not None:
        report["events"] = events.finish_shard()
    return results, report


def run_shards(
    work: Callable[[Any, list[T]], list[R]],
    shared: Any,
    items: Sequence[T],
    *,
    n_workers: int | None = 0,
    n_shards: int | None = None,
) -> list[R]:
    """Run ``work(shared, block)`` over contiguous blocks of ``items``.

    Args:
        work: picklable module-level function (or ``functools.partial``
            over one) returning one result per item of its block. Its
            results must not reference ``shared``'s arrays: a worker's
            shared-memory mappings close when ``work`` returns.
        shared: the input every block reads — an
            :class:`~repro.orbits.ephemeris.Ephemeris` or a
            :class:`~repro.engine.budgets.LinkBudgetTable`. Pooled
            blocks get it through shared memory, in-process blocks get
            the object itself.
        items: the work list, in output order.
        n_workers: process count; 0 (default) runs every block
            in-process, ``None`` picks :func:`default_worker_count`.
        n_shards: contiguous blocks (default: one per worker). A block
            is named by the position of its first item in ``items`` —
            in worker reports and in recordings.

    Returns:
        The concatenated block results, in item order, independent of
        ``n_workers`` and ``n_shards``.
    """
    n_workers = _resolve_workers(n_workers)
    items = list(items)
    if not items:
        return []
    shards = min(n_shards if n_shards is not None else max(n_workers, 1), len(items))
    bounds = partition_bounds(len(items), shards)
    pooled = n_workers > 0 and len(bounds) > 1
    arena = ShmArena() if pooled else None
    try:
        if arena is None:
            payload = shared
        elif isinstance(shared, Ephemeris):
            payload = publish_ephemeris(arena, shared)
        else:
            payload = publish_budget_table(arena, shared)
        tasks = [
            (
                work,
                payload,
                items[lo:hi],
                lo,
                obs.enabled(),
                events.shard_config(lo) if pooled else None,
            )
            for lo, hi in bounds
        ]
        t_dispatch_us = events.now_us()
        outputs = parallel_map(_run_shard, tasks, n_workers=n_workers)
    finally:
        if arena is not None:
            arena.close()
    results: list[R] = []
    for block_results, report in outputs:
        results.extend(block_results)
        metrics = report.pop("metrics")
        if pooled and metrics:
            # An in-process block already incremented this registry;
            # folding its delta back in would double-count.
            obs.registry().merge(metrics)
        # Shard recordings fold in block (= item) order.
        events.absorb_shard(report.pop("events", None), dispatched_us=t_dispatch_us)
        obs.record_worker_report(report)
    return results


def _seeded_call(args: tuple) -> Any:
    """Worker task for :func:`parallel_sweep`: ``(fn, parameter, seed)``."""
    fn, parameter, seed = args
    if seed is None:
        return fn(parameter)
    return fn(parameter, seed=seed)


def parallel_sweep(
    fn: Callable[..., R],
    parameters: Sequence[T],
    *,
    seed: int | None = None,
    n_workers: int | None = None,
) -> list[R]:
    """Sweep ``fn`` over ``parameters`` with independent per-task seeds.

    When ``seed`` is given, task ``i`` is called as ``fn(param, seed=s_i)``
    with ``s_i`` spawned from a root :class:`numpy.random.SeedSequence` —
    the per-rank stream discipline of parallel Monte-Carlo codes. With
    ``seed=None`` tasks are called as ``fn(param)``. Bind task-invariant
    inputs with ``functools.partial``.

    Returns:
        One result per parameter, in parameter order.
    """
    params = list(parameters)
    if seed is None:
        task_seeds: list[int | None] = [None] * len(params)
    else:
        root = np.random.SeedSequence(seed)
        task_seeds = [int(child.generate_state(1)[0]) for child in root.spawn(len(params))]
    tasks = [(fn, p, s) for p, s in zip(params, task_seeds)]
    return parallel_map(_seeded_call, tasks, n_workers=n_workers)
