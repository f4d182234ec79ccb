"""Parallel execution: one shard protocol, seeded sweeps, zero-copy arrays.

:mod:`repro.parallel.sweep` holds ``run_shards`` — the one way work fans
out over processes (block partition, shared-memory transport when
pooled, per-shard telemetry hand-back) — plus ``parallel_map`` and the
per-task-seeded ``parallel_sweep`` that mirror MPI scatter/gather
semantics (mpi4py itself is unavailable in the offline environment);
:mod:`repro.parallel.partition` provides the block/cyclic domain
decompositions; :mod:`repro.parallel.shm` is the zero-copy plane that
moves large arrays to workers through ``multiprocessing.shared_memory``
descriptors instead of pickles.
"""

from repro.parallel.partition import block_partition, cyclic_partition, partition_bounds
from repro.parallel.shm import (
    BudgetTableHandle,
    EphemerisHandle,
    SharedArraySpec,
    ShmArena,
    ShmAttachment,
    attach_budget_table,
    attach_ephemeris,
    publish_budget_table,
    publish_ephemeris,
)
from repro.parallel.sweep import parallel_map, parallel_sweep, run_shards

__all__ = [
    "block_partition",
    "cyclic_partition",
    "partition_bounds",
    "parallel_map",
    "parallel_sweep",
    "run_shards",
    "BudgetTableHandle",
    "EphemerisHandle",
    "SharedArraySpec",
    "ShmArena",
    "ShmAttachment",
    "attach_budget_table",
    "attach_ephemeris",
    "publish_budget_table",
    "publish_ephemeris",
]
