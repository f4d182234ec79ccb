"""Content-addressed on-disk artifact store for cross-run caching.

Every benchmark and sweep in this repo re-propagates the same
108-satellite ephemeris and re-derives the same link-budget matrices on
every run. This module amortises that work *across runs*: artifacts are
persisted under a cache directory as ``.npz`` payloads with JSON
sidecars, addressed by a SHA-256 digest of the exact inputs that
determine their content —

* an **ephemeris** artifact is keyed by the orbital elements (raw float64
  bytes of every element array), the time grid (duration, step), the
  platform names, and the propagation options (J2, GMST epoch);
* a **site-budget** artifact is keyed by the ephemeris *content* (hashes
  of the sample times and position block), the ground site, every FSO
  channel parameter (atmosphere included), the link-admission policy,
  and the platform altitude.

Changing any single input — one satellite's RAAN, the cadence, a beam
waist, the admission threshold — changes the digest, so a stale artifact
can never be served for fresh inputs; it is simply never looked up.
Artifacts carry no interpretation logic of their own: a loaded array is
bitwise-identical to the one that was computed, so cached and rebuilt
sweeps produce identical results (pinned by ``tests/engine/test_store.py``
and gated in ``benchmarks/bench_artifact_store.py``).

Integrity: payloads are written atomically (temp file + ``os.replace``)
and loaded defensively — a corrupted or truncated ``.npz`` (every zip
member's CRC is verified on load, catching byte flips), a missing or
mismatched sidecar, or wrong array shapes all count as a miss and
trigger a rebuild, never an exception.

Warm loads are **zero-copy**: ``np.savez`` stores members uncompressed,
so each ``.npy`` member occupies a contiguous byte range of the payload
file and can be served as a read-only ``np.memmap`` view straight out of
the page cache. Any irregularity (a compressed member, an unexpected
``.npy`` format version) silently falls back to the copying ``np.load``
path.

Site budgets are stored **sparsely**, in the form they take in memory:
the :data:`~repro.engine.budgets.POINT_DTYPE` records of the points the
horizon cull keeps (~5 % of a day), one record array of flat indices and
the four budget values at them. A cold build writes the records the
fill produced, and a warm load reads and checks them back into a
:class:`~repro.engine.budgets.SiteLinkBudget` — ~1/20 of the dense
bytes; the budget's dense views are scattered only when a reader first
asks for one.

The store is **opt-in**: nothing caches unless a store is passed
explicitly, the ``REPRO_CACHE_DIR`` environment variable is set, or
:func:`set_default_store` is called (the CLI's ``--cache-dir`` /
``--no-cache`` flags do exactly that).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import tempfile
import time
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro import obs
from repro.channels.fso import FSOChannelModel
from repro.constants import EARTH_J2_REFERENCE_RADIUS_KM
from repro.data.ground_nodes import GroundNode
from repro.engine.budgets import (
    POINT_DTYPE,
    LinkBudgetTable,
    SiteLinkBudget,
    compute_site_budget,
)
from repro.errors import ValidationError
from repro.network.links import LinkPolicy
from repro.orbits.elements import ElementSet
from repro.orbits.ephemeris import Ephemeris, generate_movement_sheet

__all__ = [
    "SCHEMA_VERSION",
    "ArtifactStore",
    "StoreStats",
    "canonical_digest",
    "ephemeris_build_key",
    "ephemeris_fingerprint",
    "site_budget_key",
    "default_store",
    "set_default_store",
]

#: Version of the digest schema. Bump whenever the fingerprint layout, the
#: payload or the filled values change; old artifacts are then simply
#: never addressed again (they live under a versioned subdirectory).
SCHEMA_VERSION = 3

#: Environment variable that opt-ins the process-wide default store.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_EPHEMERIS_KIND = "ephemeris"
_SITE_BUDGET_KIND = "site-budget"

# Process-wide mirrors of the per-instance StoreStats counters, so the
# run manifest sees store traffic summed over every store a run touched.
_HITS = obs.counter("store.hits")
_MISSES = obs.counter("store.misses")
_REBUILDS = obs.counter("store.rebuilds")
_WRITES = obs.counter("store.writes")


# --- fingerprinting ----------------------------------------------------------


def _array_fingerprint(array: np.ndarray) -> dict[str, Any]:
    """Shape/dtype/content hash of one array (raw little-endian bytes)."""
    arr = np.ascontiguousarray(array)
    return {
        "shape": list(arr.shape),
        "dtype": arr.dtype.str,
        "sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
    }


def canonical_digest(payload: dict[str, Any]) -> str:
    """SHA-256 digest of a payload dict in canonical JSON form.

    The schema version is folded into every digest, so a schema bump
    invalidates the whole store without touching any file.
    """
    body = json.dumps(
        {"schema": SCHEMA_VERSION, **payload}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(body.encode()).hexdigest()


def _elements_fingerprint(elements: ElementSet) -> dict[str, Any]:
    return {
        name: _array_fingerprint(getattr(elements, name))
        for name in ("a", "e", "inc", "raan", "argp", "nu")
    }


def _fso_fingerprint(model: FSOChannelModel) -> dict[str, Any]:
    out = dataclasses.asdict(model)
    # ``asdict`` already expands the nested ExponentialAtmosphere dataclass
    # (or leaves None); everything left is a JSON-serialisable scalar.
    return out


def _policy_fingerprint(policy: LinkPolicy) -> dict[str, Any]:
    return dataclasses.asdict(policy)


def _site_fingerprint(site: GroundNode) -> dict[str, Any]:
    return dataclasses.asdict(site)


def ephemeris_fingerprint(ephemeris: Ephemeris) -> dict[str, Any]:
    """Content fingerprint of a movement sheet (times, positions, names)."""
    return {
        "times_s": _array_fingerprint(ephemeris.times_s),
        "positions_ecef_km": _array_fingerprint(ephemeris.positions_ecef_km),
        "names": list(ephemeris.names),
    }


def ephemeris_build_key(
    elements: ElementSet,
    *,
    duration_s: float,
    step_s: float,
    names: Sequence[str] | None = None,
    include_j2: bool = False,
    gmst_epoch_rad: float = 0.0,
) -> str:
    """Digest addressing the ephemeris generated from these exact inputs.

    A J2 key also holds the J2 reference radius, so a store never returns
    a sheet propagated at another nodal rate; non-J2 keys omit it and
    keep their digests.
    """
    inputs: dict[str, Any] = {
        "kind": _EPHEMERIS_KIND,
        "elements": _elements_fingerprint(elements),
        "duration_s": float(duration_s),
        "step_s": float(step_s),
        "names": list(names) if names is not None else None,
        "include_j2": bool(include_j2),
        "gmst_epoch_rad": float(gmst_epoch_rad),
    }
    if include_j2:
        inputs["j2_reference_radius_km"] = EARTH_J2_REFERENCE_RADIUS_KM
    return canonical_digest(inputs)


def site_budget_key(
    ephemeris_fp: dict[str, Any],
    site: GroundNode,
    fso_model: FSOChannelModel,
    *,
    policy: LinkPolicy,
    platform_altitude_km: float,
) -> str:
    """Digest addressing one site's link-budget matrices.

    ``ephemeris_fp`` is the :func:`ephemeris_fingerprint` of the movement
    sheet the budget is computed against — pass it in precomputed so a
    31-site table hashes the multi-MB position block once, not 31 times.
    """
    return canonical_digest(
        {
            "kind": _SITE_BUDGET_KIND,
            "ephemeris": ephemeris_fp,
            "site": _site_fingerprint(site),
            "fso_model": _fso_fingerprint(fso_model),
            "policy": _policy_fingerprint(policy),
            "platform_altitude_km": float(platform_altitude_km),
        }
    )


# --- zero-copy payload loading -----------------------------------------------

_ZIP_LOCAL_HEADER_LEN = 30
_ZIP_LOCAL_MAGIC = b"PK\x03\x04"


def _mmap_npz(payload: Path) -> dict[str, np.ndarray]:
    """Map every member of an uncompressed ``.npz`` as a read-only array.

    ``np.savez`` stores members with ``ZIP_STORED``, so each ``.npy``
    sits verbatim at a known offset of the payload file; after a
    streaming CRC pass over the member bytes (the same integrity check
    ``zipfile`` performs on read) the array data is served as an
    ``np.memmap`` view — no allocation, no copy, pages fault in from the
    page cache on first touch.

    Raises on anything unexpected (compressed member, Fortran order,
    unknown ``.npy`` version, truncation, CRC mismatch); the caller
    falls back to the copying ``np.load`` path.
    """
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(payload) as zf, open(payload, "rb") as fh:
        for info in zf.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"member {info.filename!r} is compressed")
            if not info.filename.endswith(".npy"):
                raise ValueError(f"unexpected member {info.filename!r}")
            fh.seek(info.header_offset)
            local = fh.read(_ZIP_LOCAL_HEADER_LEN)
            if len(local) != _ZIP_LOCAL_HEADER_LEN or local[:4] != _ZIP_LOCAL_MAGIC:
                raise ValueError("bad zip local header")
            n_name, n_extra = struct.unpack("<HH", local[26:30])
            data_start = info.header_offset + _ZIP_LOCAL_HEADER_LEN + n_name + n_extra
            fh.seek(data_start)
            crc = 0
            remaining = info.file_size
            while remaining:
                chunk = fh.read(min(1 << 20, remaining))
                if not chunk:
                    raise ValueError("truncated member")
                crc = zlib.crc32(chunk, crc)
                remaining -= len(chunk)
            if crc != info.CRC:
                raise ValueError(f"CRC mismatch in member {info.filename!r}")
            fh.seek(data_start)
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
            else:
                raise ValueError(f"unsupported .npy version {version}")
            if fortran:
                raise ValueError("Fortran-ordered member")
            arrays[info.filename[: -len(".npy")]] = np.memmap(
                payload, dtype=dtype, mode="r", shape=shape, offset=fh.tell()
            )
    return arrays


# --- sparse site budgets -----------------------------------------------------


def _loaded_site_budget(
    site: GroundNode, points: np.ndarray, shape: tuple[int, int]
) -> SiteLinkBudget:
    """A site budget over records read from disk; raises ``ValueError``
    when they do not have the record layout or do not fit ``shape``."""
    if points.dtype != POINT_DTYPE or points.ndim != 1:
        raise ValueError("site-budget points have the wrong layout")
    index = points["index"]
    if index.size and (index.min() < 0 or index.max() >= shape[0] * shape[1]):
        raise ValueError("site-budget indices out of range")
    return SiteLinkBudget(site, shape, points)


# --- the store ---------------------------------------------------------------


@dataclass
class StoreStats:
    """Counters for one :class:`ArtifactStore` instance.

    Attributes:
        hits: artifacts served from disk.
        misses: artifacts absent and built fresh.
        rebuilds: artifacts present but unreadable (corrupt/truncated/
            mismatched sidecar) and therefore rebuilt.
        writes: artifacts persisted.
    """

    hits: int = 0
    misses: int = 0
    rebuilds: int = 0
    writes: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain mapping (manifests, assertions)."""
        return dataclasses.asdict(self)


class ArtifactStore:
    """Content-addressed cache of expensive simulation artifacts.

    Args:
        cache_dir: root directory; artifacts live under a
            ``v<SCHEMA_VERSION>/`` subdirectory so schema bumps never
            collide. Defaults to ``$REPRO_CACHE_DIR`` or
            ``~/.cache/repro-qntn``.

    The store is safe to share across processes: writes are atomic
    renames, and concurrent writers of the same digest produce the same
    bytes (content addressing), so the race is benign.
    """

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_DIR_ENV) or (
                Path.home() / ".cache" / "repro-qntn"
            )
        self.root = Path(cache_dir) / f"v{SCHEMA_VERSION}"
        self.stats = StoreStats()

    # --- paths & raw IO -----------------------------------------------------

    def payload_path(self, kind: str, digest: str) -> Path:
        """Path of an artifact's ``.npz`` payload."""
        return self.root / f"{kind}-{digest}.npz"

    def sidecar_path(self, kind: str, digest: str) -> Path:
        """Path of an artifact's JSON sidecar."""
        return self.root / f"{kind}-{digest}.json"

    def _try_load(
        self,
        kind: str,
        digest: str,
        decode: Callable[[dict[str, np.ndarray]], Any] = lambda arrays: arrays,
    ) -> Any:
        """Load an artifact's arrays through ``decode``, or None on any
        miss/corruption.

        A present-but-unreadable artifact (bad zip CRC, truncated file,
        missing or mismatched sidecar, wrong shapes, arrays ``decode``
        rejects) is deleted and counted as a rebuild — the caller
        recomputes and overwrites.
        """
        payload = self.payload_path(kind, digest)
        sidecar = self.sidecar_path(kind, digest)
        if not payload.exists():
            self.stats.misses += 1
            _MISSES.inc()
            return None
        try:
            meta = json.loads(sidecar.read_text())
            if meta.get("digest") != digest or meta.get("schema") != SCHEMA_VERSION:
                raise ValueError("sidecar does not describe this artifact")
            expected: dict[str, Any] = meta["arrays"]
            try:
                arrays = _mmap_npz(payload)
            except Exception:
                # Not servable zero-copy (or corrupt — np.load decides):
                # fall back to the copying loader, whose zip CRC pass
                # raises on genuine corruption.
                with np.load(payload) as npz:
                    arrays = {name: npz[name] for name in npz.files}
            if set(arrays) != set(expected):
                raise ValueError("payload arrays do not match sidecar")
            for name, arr in arrays.items():
                spec = expected[name]
                if list(arr.shape) != spec["shape"] or arr.dtype.str != spec["dtype"]:
                    raise ValueError(f"array {name!r} shape/dtype mismatch")
            loaded = decode(arrays)
        except Exception:
            # Corrupt, truncated, or inconsistent: drop it and rebuild.
            self.stats.rebuilds += 1
            _REBUILDS.inc()
            for path in (payload, sidecar):
                try:
                    path.unlink()
                except OSError:
                    pass
            return None
        self.stats.hits += 1
        _HITS.inc()
        return loaded

    def _write(
        self,
        kind: str,
        digest: str,
        arrays: dict[str, np.ndarray],
        meta: dict[str, Any],
    ) -> None:
        """Persist an artifact atomically (payload first, sidecar last)."""
        self.root.mkdir(parents=True, exist_ok=True)
        sidecar_body = json.dumps(
            {
                "digest": digest,
                "kind": kind,
                "schema": SCHEMA_VERSION,
                "written_at_unix_s": time.time(),
                "arrays": {
                    name: {"shape": list(a.shape), "dtype": a.dtype.str}
                    for name, a in arrays.items()
                },
                **meta,
            },
            sort_keys=True,
            indent=1,
        )
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, self.payload_path(kind, digest))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".json.tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(sidecar_body)
            os.replace(tmp, self.sidecar_path(kind, digest))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        _WRITES.inc()

    # --- ephemeris artifacts ------------------------------------------------

    def get_or_build_ephemeris(
        self,
        elements: ElementSet,
        *,
        duration_s: float,
        step_s: float,
        names: Sequence[str] | None = None,
        include_j2: bool = False,
        gmst_epoch_rad: float = 0.0,
    ) -> Ephemeris:
        """A movement sheet for these inputs, loaded if cached, else built.

        The cached artifact round-trips bit-exactly: loaded sample times
        and positions equal the propagated ones array-for-array.
        """
        digest = ephemeris_build_key(
            elements,
            duration_s=duration_s,
            step_s=step_s,
            names=names,
            include_j2=include_j2,
            gmst_epoch_rad=gmst_epoch_rad,
        )
        arrays = self._try_load(_EPHEMERIS_KIND, digest)
        if arrays is not None:
            meta = json.loads(self.sidecar_path(_EPHEMERIS_KIND, digest).read_text())
            return Ephemeris(
                arrays["times_s"], arrays["positions_ecef_km"], list(meta["names"])
            )
        ephemeris = generate_movement_sheet(
            elements,
            duration_s=duration_s,
            step_s=step_s,
            names=names,
            include_j2=include_j2,
            gmst_epoch_rad=gmst_epoch_rad,
        )
        self._write(
            _EPHEMERIS_KIND,
            digest,
            {
                "times_s": ephemeris.times_s,
                "positions_ecef_km": ephemeris.positions_ecef_km,
            },
            {
                "names": list(ephemeris.names),
                "inputs": {
                    "duration_s": float(duration_s),
                    "step_s": float(step_s),
                    "include_j2": bool(include_j2),
                    "gmst_epoch_rad": float(gmst_epoch_rad),
                    "n_platforms": ephemeris.n_platforms,
                },
            },
        )
        return ephemeris

    # --- link-budget artifacts ----------------------------------------------

    def get_or_build_site_budget(
        self,
        site: GroundNode,
        ephemeris: Ephemeris,
        fso_model: FSOChannelModel,
        *,
        policy: LinkPolicy | None = None,
        platform_altitude_km: float = 500.0,
        ephemeris_fp: dict[str, Any] | None = None,
    ) -> SiteLinkBudget:
        """One site's link budget, loaded if cached, else computed.

        Args:
            ephemeris_fp: precomputed :func:`ephemeris_fingerprint`; pass
                it when building many sites against one ephemeris so the
                position block is hashed once.
        """
        policy = policy or LinkPolicy()
        if ephemeris_fp is None:
            ephemeris_fp = ephemeris_fingerprint(ephemeris)
        digest = site_budget_key(
            ephemeris_fp,
            site,
            fso_model,
            policy=policy,
            platform_altitude_km=platform_altitude_km,
        )
        shape = (ephemeris.n_platforms, ephemeris.n_samples)
        loaded = self._try_load(
            _SITE_BUDGET_KIND,
            digest,
            lambda arrays: _loaded_site_budget(site, arrays["points"], shape),
        )
        if loaded is not None:
            return loaded
        budget = compute_site_budget(
            site,
            ephemeris,
            fso_model,
            policy=policy,
            platform_altitude_km=platform_altitude_km,
        )
        self._write(
            _SITE_BUDGET_KIND,
            digest,
            {"points": budget.points},
            {"site": _site_fingerprint(site)},
        )
        return budget

    def get_or_build_budget_table(
        self,
        ephemeris: Ephemeris,
        sites: list[GroundNode],
        fso_model: FSOChannelModel,
        *,
        policy: LinkPolicy | None = None,
        platform_altitude_km: float = 500.0,
    ) -> LinkBudgetTable:
        """A :class:`LinkBudgetTable` whose per-site budgets go through
        this store (loaded on a warm run, computed-and-persisted cold).

        Budgets stay lazy: a sweep that only ever touches three sites
        neither computes nor loads the other twenty-eight.
        """
        return LinkBudgetTable(
            ephemeris,
            sites,
            fso_model,
            policy=policy,
            platform_altitude_km=platform_altitude_km,
            store=self,
        )


# --- process-wide default ----------------------------------------------------

_UNSET = object()
_default: Any = _UNSET


def default_store() -> ArtifactStore | None:
    """The process-wide store, or None when caching is off.

    Resolution order: whatever :func:`set_default_store` installed;
    otherwise an :class:`ArtifactStore` rooted at ``$REPRO_CACHE_DIR`` if
    that variable is set; otherwise None (caching disabled — runs behave
    exactly as before this layer existed).
    """
    global _default
    if _default is _UNSET:
        env = os.environ.get(CACHE_DIR_ENV)
        _default = ArtifactStore(env) if env else None
    return _default


def set_default_store(store: ArtifactStore | None) -> ArtifactStore | None:
    """Install (or with None: disable) the process-wide default store.

    Returns the previous value so callers can restore it. Used by the
    CLI's ``--cache-dir`` / ``--no-cache`` flags and by tests.
    """
    global _default
    previous = None if _default is _UNSET else _default
    if not (store is None or isinstance(store, ArtifactStore)):
        raise ValidationError("set_default_store expects an ArtifactStore or None")
    _default = store
    return previous
