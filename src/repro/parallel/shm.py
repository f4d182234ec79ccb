"""Zero-copy shared-memory plane for process-pool runs.

:func:`repro.parallel.sweep.run_shards` fans blocks of work out over a
process pool; without this module every task would pickle its shared
input — for a day sweep that means serialising the multi-MB
``(N, T, 3)`` ephemeris block (or the per-site budget matrices) once per
shard. This module moves those arrays into
:mod:`multiprocessing.shared_memory` segments so workers receive only a
(name, shape, dtype) descriptor a few dozen bytes long and map the pages
directly — zero copies on dispatch, identical bytes on arrival.
``run_shards`` publishes exactly when its blocks run in a pool; an
in-process run hands the objects over as they are.

Lifecycle (documented in DESIGN.md §8):

* the **parent** publishes arrays through a :class:`ShmArena`, which owns
  the segments; ``close()`` (or the context-manager exit, which runs even
  when a worker raises) both closes the parent's mappings and *unlinks*
  the segments so nothing outlives the run;
* each **worker** attaches by name via :class:`ShmAttachment`, builds
  NumPy views over the mapped buffers, and closes its mappings when its
  block is done — views into a closed mapping are invalid, so results
  must not reference them. Workers never unlink.

On Linux with the default fork start method the pool workers share the
parent's ``resource_tracker``, so parent-side unlink is authoritative and
leak-free even across abnormal worker exits.

Determinism: attached arrays are byte-for-byte the published ones, so a
pooled run returns bit-identical results to the in-process one — pinned
by ``tests/parallel/test_shm.py`` and gated across 1/2/4 workers in
``benchmarks/bench_artifact_store.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro import obs
from repro.errors import ValidationError
from repro.orbits.ephemeris import Ephemeris

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.budgets import LinkBudgetTable, SiteLinkBudget

__all__ = [
    "SharedArraySpec",
    "ShmArena",
    "ShmAttachment",
    "EphemerisHandle",
    "BudgetHandle",
    "BudgetTableHandle",
    "publish_ephemeris",
    "attach_ephemeris",
    "publish_budget_table",
    "attach_budget_table",
]


# Dispatch-plane accounting: the counters are lifetime totals, the gauge
# tracks bytes currently resident across live arenas.
_SEGMENTS_PUBLISHED = obs.counter("shm.segments.published")
_BYTES_PUBLISHED = obs.counter("shm.bytes.published")
_ARENA_BYTES = obs.gauge("shm.arena.bytes")


@dataclass(frozen=True)
class SharedArraySpec:
    """Everything a worker needs to map one published array.

    Attributes:
        name: OS-level shared-memory segment name.
        shape: array shape.
        dtype: NumPy dtype string (e.g. ``"<f8"``).
    """

    name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        """Size of the described array in bytes."""
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


class ShmArena:
    """Parent-side owner of a sweep's shared-memory segments.

    Publish arrays before dispatching tasks; close (unlink included)
    after the pool drains. Use as a context manager so segments are
    reclaimed even when a worker raises::

        with ShmArena() as arena:
            handle = publish_ephemeris(arena, ephemeris)
            results = parallel_map(task, [(handle, block) for block in blocks])
        # segments are gone here, success or not
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._closed = False

    def publish(self, array: np.ndarray) -> SharedArraySpec:
        """Copy one array into a fresh segment; returns its descriptor."""
        if self._closed:
            raise ValidationError("cannot publish into a closed ShmArena")
        arr = np.ascontiguousarray(array)
        if arr.nbytes == 0:
            raise ValidationError("cannot publish an empty array to shared memory")
        segment = shared_memory.SharedMemory(create=True, size=arr.nbytes)
        self._segments.append(segment)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf)
        view[...] = arr
        _SEGMENTS_PUBLISHED.inc()
        _BYTES_PUBLISHED.inc(arr.nbytes)
        _ARENA_BYTES.add(arr.nbytes)
        return SharedArraySpec(segment.name, tuple(arr.shape), arr.dtype.str)

    @property
    def total_bytes(self) -> int:
        """Bytes currently held across all published segments."""
        return sum(seg.size for seg in self._segments)

    def close(self) -> None:
        """Close and unlink every segment. Idempotent."""
        if self._closed:
            return
        self._closed = True
        _ARENA_BYTES.add(-sum(seg.size for seg in self._segments))
        for segment in self._segments:
            try:
                segment.close()
            except OSError:
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ShmAttachment:
    """Worker-side view factory over published segments.

    Attaching yields a read-only zero-copy NumPy view; the worker copies
    out whatever slice it needs and closes its mappings before returning
    (views into a closed mapping are invalid). Never unlinks — that is
    the arena's job in the parent.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []

    def attach(self, spec: SharedArraySpec) -> np.ndarray:
        """Map one descriptor to a read-only array view (zero-copy)."""
        segment = shared_memory.SharedMemory(name=spec.name, create=False)
        self._segments.append(segment)
        view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
        view.flags.writeable = False
        return view

    def close(self) -> None:
        """Drop the worker's mappings (segments stay alive in the parent)."""
        for segment in self._segments:
            try:
                segment.close()
            except OSError:
                pass
        self._segments.clear()

    def __enter__(self) -> "ShmAttachment":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# --- ephemeris over shared memory --------------------------------------------


@dataclass(frozen=True)
class EphemerisHandle:
    """Picklable stand-in for an :class:`Ephemeris` living in shared memory.

    A few hundred bytes on the wire regardless of constellation size;
    compare ~7.5 MB for pickling the 108-satellite day sheet directly.
    """

    times: SharedArraySpec
    positions: SharedArraySpec
    names: tuple[str, ...]

    @property
    def payload_bytes(self) -> int:
        """Bytes of array data referenced (not shipped) by this handle."""
        return self.times.nbytes + self.positions.nbytes


def publish_ephemeris(arena: ShmArena, ephemeris: Ephemeris) -> EphemerisHandle:
    """Publish a movement sheet's arrays; returns the worker handle."""
    return EphemerisHandle(
        times=arena.publish(ephemeris.times_s),
        positions=arena.publish(ephemeris.positions_ecef_km),
        names=tuple(ephemeris.names),
    )


def attach_ephemeris(
    handle: EphemerisHandle, attachment: ShmAttachment
) -> Ephemeris:
    """Rebuild an :class:`Ephemeris` over shared buffers (zero-copy).

    The returned object's arrays are views into the mapped segments;
    callers slicing with ``at_time_indices`` / ``subset`` get fresh
    copies (those methods copy), which remain valid after
    ``attachment.close()``.
    """
    times = attachment.attach(handle.times)
    positions = attachment.attach(handle.positions)
    return Ephemeris(times, positions, list(handle.names))


# --- link-budget tables over shared memory -----------------------------------


@dataclass(frozen=True)
class BudgetHandle:
    """Shared-memory descriptors for one site's budget matrices.

    ``usable_healthy`` is present only for budgets that were derived
    through an active fault plane in the parent — shipping it keeps the
    worker-side denial attribution identical to the serial path.
    """

    site_name: str
    elevation: SharedArraySpec
    slant_range: SharedArraySpec
    transmissivity: SharedArraySpec
    usable: SharedArraySpec
    usable_healthy: SharedArraySpec | None = None


@dataclass(frozen=True)
class BudgetTableHandle:
    """Picklable stand-in for a fully-computed :class:`LinkBudgetTable`.

    Carries per-site array descriptors plus the small picklable context
    (sites, channel model, policy, altitude) and the ephemeris handle
    needed to reconstruct an equivalent table in a worker.
    """

    ephemeris: EphemerisHandle
    budgets: tuple[BudgetHandle, ...]
    sites: tuple[object, ...]
    fso_model: object
    policy: object
    platform_altitude_km: float

    @property
    def payload_bytes(self) -> int:
        """Bytes of array data referenced (not shipped) by this handle."""
        total = self.ephemeris.payload_bytes
        for b in self.budgets:
            total += (
                b.elevation.nbytes
                + b.slant_range.nbytes
                + b.transmissivity.nbytes
                + b.usable.nbytes
                + (b.usable_healthy.nbytes if b.usable_healthy is not None else 0)
            )
        return total


def publish_budget_table(
    arena: ShmArena,
    table: "LinkBudgetTable",
    *,
    site_names: Iterable[str] | None = None,
) -> BudgetTableHandle:
    """Publish a budget table's matrices; returns the worker handle.

    Args:
        site_names: restrict publication to these sites (default: all).
            Budgets are computed first if still lazy.
    """
    names = list(site_names) if site_names is not None else table.site_names
    handles = []
    for name in names:
        budget = table.budget(name)
        handles.append(
            BudgetHandle(
                site_name=name,
                elevation=arena.publish(budget.elevation_rad),
                slant_range=arena.publish(budget.slant_range_km),
                transmissivity=arena.publish(budget.transmissivity),
                usable=arena.publish(budget.usable),
                usable_healthy=(
                    None
                    if budget.usable_healthy is None
                    else arena.publish(budget.usable_healthy)
                ),
            )
        )
    return BudgetTableHandle(
        ephemeris=publish_ephemeris(arena, table.ephemeris),
        budgets=tuple(handles),
        sites=tuple(s for s in table.sites if s.name in set(names)),
        fso_model=table.fso_model,
        policy=table.policy,
        platform_altitude_km=table.platform_altitude_km,
    )


def attach_budget_table(
    handle: BudgetTableHandle, attachment: ShmAttachment
) -> "LinkBudgetTable":
    """Rebuild a :class:`LinkBudgetTable` over shared buffers (zero-copy).

    Every published site budget arrives pre-materialised as views into
    the mapped segments; no geometry is recomputed in the worker.
    """
    from repro.engine.budgets import LinkBudgetTable, SiteLinkBudget

    table = LinkBudgetTable(
        attach_ephemeris(handle.ephemeris, attachment),
        list(handle.sites),
        handle.fso_model,
        policy=handle.policy,
        platform_altitude_km=handle.platform_altitude_km,
    )
    for b in handle.budgets:
        table._budgets[b.site_name] = SiteLinkBudget(
            table.site(b.site_name),
            attachment.attach(b.elevation),
            attachment.attach(b.slant_range),
            attachment.attach(b.transmissivity),
            attachment.attach(b.usable),
            usable_healthy=(
                None
                if b.usable_healthy is None
                else attachment.attach(b.usable_healthy)
            ),
        )
    return table

