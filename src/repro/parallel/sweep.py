"""Process-pool parameter sweeps with deterministic per-task seeding.

``parallel_sweep`` is the workhorse behind the constellation-size sweeps:
it fans a task function out over a parameter list using a process pool,
hands every task its own spawned RNG stream (so results are independent
of worker count and scheduling), and gathers results in input order —
scatter/compute/gather, exactly the shape of an MPI collective pipeline.

Tasks must be picklable module-level callables; for quick functional work
on already-loaded data, ``parallel_map`` with ``n_workers=0`` (serial
fallback) avoids process-spawn overhead entirely.

Large arrays ride the zero-copy plane of :mod:`repro.parallel.shm`
instead of the pickle stream: ``parallel_service_sweep`` publishes the
ephemeris block into shared memory once and ships workers a descriptor a
few hundred bytes long, and ``parallel_sweep(shared=...)`` does the same
for arbitrary task-shared arrays. Results are bit-identical either way.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence, TypeVar

import numpy as np

from repro import obs
from repro.errors import ValidationError
from repro.parallel.partition import block_partition
from repro.parallel.shm import (
    EphemerisHandle,
    ShmArena,
    ShmAttachment,
    attach_arrays,
    attach_ephemeris,
    publish_ephemeris,
    shared_arrays,
)
from repro.obs import Stopwatch

__all__ = [
    "parallel_map",
    "parallel_sweep",
    "parallel_service_sweep",
    "SweepResult",
    "default_worker_count",
]

T = TypeVar("T")
R = TypeVar("R")


def default_worker_count() -> int:
    """A sane process count: physical parallelism minus one, at least 1."""
    return max((os.cpu_count() or 2) - 1, 1)


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a parameter sweep.

    Attributes:
        parameters: swept parameter values, input order.
        results: one result per parameter, same order.
        elapsed_s: wall-clock duration of the sweep.
        n_workers: process count used (0 = serial).
    """

    parameters: tuple[Any, ...]
    results: tuple[Any, ...]
    elapsed_s: float
    n_workers: int

    def as_dict(self) -> dict[Any, Any]:
        """Mapping of parameter -> result (parameters must be hashable)."""
        return dict(zip(self.parameters, self.results))


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    n_workers: int | None = None,
    chunksize: int = 1,
) -> list[R]:
    """Order-preserving map over a process pool.

    Args:
        fn: picklable callable.
        items: inputs.
        n_workers: process count; ``0`` runs serially in-process (useful
            under profilers and in tests), ``None`` picks a default.
        chunksize: items per inter-process message; raise it for many
            small tasks to amortise IPC.
    """
    if n_workers is None:
        n_workers = default_worker_count()
    if n_workers < 0:
        raise ValidationError(f"n_workers must be >= 0, got {n_workers}")
    if chunksize < 1:
        raise ValidationError(f"chunksize must be >= 1, got {chunksize}")
    if n_workers == 0 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def _service_shard(args: tuple) -> tuple[list[list[Any]], dict[str, Any]]:
    """Worker task: serve every request at every timestep of one shard.

    Rebuilds the QNTN network over the shard's slice of the movement
    sheet and instantiates ONE simulator for the whole shard — with
    ``use_cache=True`` the worker's :class:`LinkStateCache` is built once
    from the shard ephemeris and reused across every request and
    timestep, instead of re-evaluating links per request.

    Returns ``(per_step_outcomes, report)``. The report carries the
    shard's identity (pid, index range), phase timings, and the delta of
    this worker's metrics over the shard (snapshot at exit minus snapshot
    at entry — correct under both fork, where the child inherits parent
    counts, and spawn, where it starts from zero). The parent folds the
    delta into its registry only when the task actually ran in another
    process; in-process (serial) execution already incremented the parent
    registry directly.
    """
    (
        ephemeris,
        time_indices,
        pairs,
        use_cache,
        fso_model,
        policy,
        convention,
        obs_enabled,
        events_cfg,
        fault_schedule,
    ) = args
    from repro.channels.presets import paper_satellite_fso
    from repro.network.simulator import NetworkSimulator
    from repro.network.topology import attach_satellites, build_qntn_ground_network
    from repro.obs import events
    from repro.obs.metrics import metrics_delta

    if obs_enabled:
        obs.enable()
    # Pooled task: never write through a fork-inherited recorder (its
    # file descriptor is shared with the parent); record this shard into
    # its own recorder and ship the payload back for merging.
    events.start_shard(events_cfg)
    baseline = obs.registry().snapshot()
    t0 = time.perf_counter()
    attachment = ShmAttachment()
    try:
        if isinstance(ephemeris, EphemerisHandle):
            # Zero-copy dispatch: map the parent's published arrays and
            # copy out only this shard's columns (at_time_indices copies).
            ephemeris = attach_ephemeris(ephemeris, attachment)
        shard = ephemeris.at_time_indices(time_indices)
    finally:
        attachment.close()
    t_attach = time.perf_counter()
    network = build_qntn_ground_network()
    attach_satellites(network, shard, fso_model or paper_satellite_fso())
    # The schedule travels realized (concrete events, no RNG left), so
    # every worker compiles the identical plane regardless of shard
    # order — serial == sharded holds under faults too.
    plane = fault_schedule.compile() if fault_schedule is not None else None
    simulator = NetworkSimulator(
        network,
        policy=policy,
        fidelity_convention=convention,
        use_cache=use_cache,
        faults=plane,
    )
    t_build = time.perf_counter()
    results = [
        simulator.serve_requests(list(pairs), float(t)) for t in shard.times_s
    ]
    t_serve = time.perf_counter()
    report = {
        "pid": os.getpid(),
        "first_index": int(time_indices[0]),
        "last_index": int(time_indices[-1]),
        "n_steps": len(time_indices),
        "timings_s": {
            "attach": t_attach - t0,
            "build": t_build - t_attach,
            "serve": t_serve - t_build,
            "total": t_serve - t0,
        },
        "metrics": metrics_delta(obs.registry().snapshot(), baseline),
    }
    if events_cfg is not None:
        report["events"] = events.finish_shard()
    return results, report


def parallel_service_sweep(
    ephemeris: Any,
    requests: Sequence[Any],
    *,
    time_indices: Sequence[int] | None = None,
    n_workers: int | None = None,
    n_shards: int | None = None,
    use_cache: bool = True,
    fso_model: Any = None,
    policy: Any = None,
    fidelity_convention: str = "sqrt",
    use_shm: bool | None = None,
    faults: Any = None,
) -> list[list[Any]]:
    """Serve a request batch over a day sweep with time-sharded workers.

    The ephemeris sample axis is block-partitioned across worker
    processes; each worker builds its shard of the link-state cache once
    and serves the full request batch at every shard timestep. Results
    are gathered in time order, so the output is independent of
    ``n_workers`` and ``n_shards`` — ``n_workers=0`` (serial) and any
    pool size produce identical outcome lists, which the determinism
    tests pin.

    Args:
        ephemeris: constellation movement sheet.
        requests: :class:`~repro.core.requests.Request` objects or plain
            ``(source, destination)`` pairs.
        time_indices: ephemeris sample indices to serve at (default: all).
        n_workers: process count (0 = serial in-process).
        n_shards: number of contiguous time blocks (default: one per
            worker).
        use_cache: build each worker's vectorized link-state cache
            (default) or run the direct scalar path.
        fso_model / policy / fidelity_convention: simulator knobs.
        use_shm: publish the ephemeris into shared memory and send
            workers only a descriptor, instead of pickling the position
            block once per shard (default: on whenever a pool is used;
            forced off for serial execution where there is no dispatch).
            Results are bit-identical either way.
        faults: optional :class:`~repro.faults.FaultSchedule`. Must be
            realized (concrete events only — call
            :meth:`FaultSchedule.realize` first); each worker compiles
            the identical plane, keeping serial == sharded.

    Returns:
        One list of :class:`RequestOutcome` per evaluated timestep.
    """
    if n_workers is None:
        n_workers = default_worker_count()
    indices = (
        list(range(ephemeris.n_samples))
        if time_indices is None
        else [int(i) for i in time_indices]
    )
    if not indices:
        return []
    pairs = tuple(
        r.endpoints if hasattr(r, "endpoints") else (str(r[0]), str(r[1]))
        for r in requests
    )
    shards = n_shards if n_shards is not None else max(n_workers, 1)
    shards = min(shards, len(indices))
    blocks = [block for block in block_partition(indices, shards) if block]
    pooled = n_workers > 0 and len(blocks) > 1
    if use_shm is None:
        use_shm = pooled
    if faults is not None:
        if getattr(faults, "is_empty", False):
            faults = None
        elif not getattr(faults, "is_realized", True):
            raise ValidationError(
                "parallel_service_sweep needs a realized FaultSchedule "
                "(call schedule.realize(seed=...) first)"
            )
    from repro.obs import events

    arena = ShmArena() if (use_shm and pooled) else None
    try:
        payload: Any = (
            publish_ephemeris(arena, ephemeris) if arena is not None else ephemeris
        )
        tasks = [
            (
                payload,
                block,
                pairs,
                use_cache,
                fso_model,
                policy,
                fidelity_convention,
                obs.enabled(),
                # In-process (non-pooled) tasks record straight into the
                # parent's active recorder via the simulator's global
                # hook; only pooled tasks get shard recorders. Trace ids
                # key on (endpoints, t_s), so both modes sample — and
                # attribute — exactly the same requests.
                events.shard_config(int(block[0])) if pooled else None,
                faults,
            )
            for block in blocks
        ]
        t_dispatch_us = events.now_us()
        shard_outputs = parallel_map(_service_shard, tasks, n_workers=n_workers)
    finally:
        if arena is not None:
            arena.close()
    per_shard = []
    for results, report in shard_outputs:
        per_shard.append(results)
        metrics = report.pop("metrics", None)
        if pooled and metrics:
            # Only pooled tasks ran in another process; the serial path
            # already incremented this registry directly, so folding its
            # delta back in would double-count.
            obs.registry().merge(metrics)
        events.absorb_shard(report.pop("events", None), dispatched_us=t_dispatch_us)
        obs.record_worker_report(report)
    return [step for shard_result in per_shard for step in shard_result]


def _seeded_call(args: tuple) -> Any:
    """Worker task for :func:`parallel_sweep`.

    ``args`` is ``(fn, parameter, seed, shared_specs)``; when
    ``shared_specs`` is set the worker attaches the published arrays and
    passes them through as ``fn(param, shared={...})``, copying nothing.
    """
    fn, parameter, seed, shared_specs = args
    kwargs: dict[str, Any] = {}
    if seed is not None:
        kwargs["seed"] = seed
    if shared_specs is None:
        return fn(parameter, **kwargs)
    attachment = ShmAttachment()
    try:
        kwargs["shared"] = attach_arrays(shared_specs, attachment)
        return fn(parameter, **kwargs)
    finally:
        attachment.close()


def parallel_sweep(
    fn: Callable[..., R],
    parameters: Sequence[T],
    *,
    seed: int | None = None,
    n_workers: int | None = None,
    chunksize: int = 1,
    shared: Mapping[str, np.ndarray] | None = None,
) -> SweepResult:
    """Sweep ``fn`` over ``parameters`` with independent per-task seeds.

    When ``seed`` is given, task ``i`` is called as ``fn(param, seed=s_i)``
    with ``s_i`` spawned from a root :class:`numpy.random.SeedSequence` —
    the per-rank stream discipline of parallel Monte-Carlo codes. With
    ``seed=None`` tasks are called as ``fn(param)``.

    When ``shared`` is given, every task additionally receives
    ``fn(param, ..., shared=<name-to-array mapping>)``. Under a process
    pool the arrays travel once through shared memory (workers get
    zero-copy read-only views) instead of being pickled per task; the
    serial path passes the originals straight through. Segments are
    unlinked when the sweep returns, even on task failure.

    Returns:
        :class:`SweepResult` with results in parameter order.
    """
    params = list(parameters)
    if seed is None:
        task_seeds: list[int | None] = [None] * len(params)
    else:
        root = np.random.SeedSequence(seed)
        task_seeds = [int(child.generate_state(1)[0]) for child in root.spawn(len(params))]

    pool_workers = default_worker_count() if n_workers is None else n_workers
    pooled = pool_workers > 0 and len(params) > 1
    arena = ShmArena() if (shared is not None and pooled) else None
    watch = Stopwatch()
    try:
        with watch.lap("sweep"):
            if shared is None:
                specs_or_shared: Any = None
                tasks = [(fn, p, s, None) for p, s in zip(params, task_seeds)]
            elif arena is not None:
                specs_or_shared = shared_arrays(arena, shared)
                tasks = [
                    (fn, p, s, specs_or_shared) for p, s in zip(params, task_seeds)
                ]
            else:
                # Serial: hand the original arrays straight to the task.
                tasks = [
                    (_passthrough_shared, (fn, p, dict(shared)), s, None)
                    for p, s in zip(params, task_seeds)
                ]
            results = parallel_map(
                _seeded_call, tasks, n_workers=n_workers, chunksize=chunksize
            )
    finally:
        if arena is not None:
            arena.close()
    return SweepResult(
        parameters=tuple(params),
        results=tuple(results),
        elapsed_s=watch.totals()["sweep"],
        n_workers=pool_workers,
    )


def _passthrough_shared(bundle: tuple, seed: int | None = None) -> Any:
    """Serial-path shim: unwraps ``(fn, param, shared)`` for the task."""
    fn, parameter, shared = bundle
    kwargs: dict[str, Any] = {"shared": shared}
    if seed is not None:
        kwargs["seed"] = seed
    return fn(parameter, **kwargs)
