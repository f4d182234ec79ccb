"""Key integrity and corruption recovery of the content-addressed store.

Two families of guarantees:

* **Key sensitivity** — changing any single input that determines an
  artifact's content (one satellite's RAAN by 1e-9, the cadence, a
  channel parameter, the admission threshold, the site, the altitude)
  produces a different digest, so stale artifacts are unaddressable by
  construction.
* **Defensive loading** — a truncated payload, a flipped byte (caught by
  the per-member CRC pass), or a mismatched sidecar is detected, deleted
  and rebuilt; the rebuilt artifact is bit-identical to a fresh compute.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.channels.presets import paper_satellite_fso
from repro.data.ground_nodes import all_ground_nodes
from repro.engine.budgets import compute_site_budget
from repro.engine.store import (
    SCHEMA_VERSION,
    ArtifactStore,
    canonical_digest,
    default_store,
    ephemeris_build_key,
    ephemeris_fingerprint,
    set_default_store,
    site_budget_key,
)
from repro.errors import ValidationError
from repro.network.links import LinkPolicy
from repro.orbits.elements import ElementSet
from repro.orbits.walker import qntn_constellation

DURATION_S = 3600.0
STEP_S = 60.0


@pytest.fixture(scope="module")
def elements():
    return qntn_constellation(6)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


def _perturbed_raan(elements: ElementSet) -> ElementSet:
    raan = elements.raan.copy()
    raan[0] += 1e-9
    return ElementSet(elements.a, elements.e, elements.inc, raan, elements.argp, elements.nu)


def _budget_arrays(budget):
    return (
        budget.elevation_rad,
        budget.slant_range_km,
        budget.transmissivity,
        budget.usable,
    )


def _budget_payload(store, ephemeris, site, model):
    """Payload path of a default-policy site budget."""
    digest = site_budget_key(
        ephemeris_fingerprint(ephemeris),
        site,
        model,
        policy=LinkPolicy(),
        platform_altitude_km=500.0,
    )
    return store.payload_path("site-budget", digest)


class TestKeySensitivity:
    def test_same_inputs_same_digest(self, elements):
        k1 = ephemeris_build_key(elements, duration_s=DURATION_S, step_s=STEP_S)
        k2 = ephemeris_build_key(elements, duration_s=DURATION_S, step_s=STEP_S)
        assert k1 == k2

    def test_every_ephemeris_input_changes_digest(self, elements):
        base = ephemeris_build_key(elements, duration_s=DURATION_S, step_s=STEP_S)
        variants = [
            ephemeris_build_key(elements, duration_s=DURATION_S + STEP_S, step_s=STEP_S),
            ephemeris_build_key(elements, duration_s=DURATION_S, step_s=STEP_S / 2),
            ephemeris_build_key(
                _perturbed_raan(elements), duration_s=DURATION_S, step_s=STEP_S
            ),
            ephemeris_build_key(
                elements, duration_s=DURATION_S, step_s=STEP_S, include_j2=True
            ),
            ephemeris_build_key(
                elements, duration_s=DURATION_S, step_s=STEP_S, gmst_epoch_rad=0.1
            ),
            ephemeris_build_key(
                elements,
                duration_s=DURATION_S,
                step_s=STEP_S,
                names=[f"sat-{i}" for i in range(6)],
            ),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_j2_keys_carry_the_reference_radius(self, elements, monkeypatch):
        """A J2 sheet propagated at another nodal rate gets another key;
        non-J2 keys (every paper run) keep the digest they had before
        the radius joined J2 keys."""
        from repro.engine import store as store_module

        plain = ephemeris_build_key(elements, duration_s=DURATION_S, step_s=STEP_S)
        j2 = ephemeris_build_key(
            elements, duration_s=DURATION_S, step_s=STEP_S, include_j2=True
        )
        # Pinned when schema 2 was current: the key layout is unchanged,
        # only the schema version folded into every digest has moved.
        with monkeypatch.context() as schema_2:
            schema_2.setattr(store_module, "SCHEMA_VERSION", 2)
            assert (
                ephemeris_build_key(elements, duration_s=DURATION_S, step_s=STEP_S)
                == "a07ad4337a3d8b8f412eaf1de1fd14dd7a2e0c0b43ab9f7195924db74b921ad0"
            )
        monkeypatch.setattr(store_module, "EARTH_J2_REFERENCE_RADIUS_KM", 6371.0)
        assert (
            ephemeris_build_key(elements, duration_s=DURATION_S, step_s=STEP_S) == plain
        )
        assert (
            ephemeris_build_key(
                elements, duration_s=DURATION_S, step_s=STEP_S, include_j2=True
            )
            != j2
        )

    def test_every_budget_input_changes_digest(self, store, elements):
        ephemeris = store.get_or_build_ephemeris(
            elements, duration_s=DURATION_S, step_s=STEP_S
        )
        fp = ephemeris_fingerprint(ephemeris)
        sites = list(all_ground_nodes())
        model = paper_satellite_fso()
        policy = LinkPolicy()
        base = site_budget_key(fp, sites[0], model, policy=policy, platform_altitude_km=500.0)
        other_ephemeris = store.get_or_build_ephemeris(
            _perturbed_raan(elements), duration_s=DURATION_S, step_s=STEP_S
        )
        variants = [
            site_budget_key(
                ephemeris_fingerprint(other_ephemeris),
                sites[0],
                model,
                policy=policy,
                platform_altitude_km=500.0,
            ),
            site_budget_key(fp, sites[1], model, policy=policy, platform_altitude_km=500.0),
            site_budget_key(
                fp,
                sites[0],
                dataclasses.replace(model, receiver_efficiency=0.97),
                policy=policy,
                platform_altitude_km=500.0,
            ),
            site_budget_key(
                fp,
                sites[0],
                model,
                policy=LinkPolicy(transmissivity_threshold=0.71),
                platform_altitude_km=500.0,
            ),
            site_budget_key(fp, sites[0], model, policy=policy, platform_altitude_km=550.0),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_schema_version_folded_into_digest(self):
        digest = canonical_digest({"kind": "probe"})
        body = json.dumps(
            {"schema": SCHEMA_VERSION + 1, "kind": "probe"},
            sort_keys=True,
            separators=(",", ":"),
        )
        import hashlib

        assert digest != hashlib.sha256(body.encode()).hexdigest()


class TestRoundTrip:
    def test_ephemeris_round_trips_bit_exactly(self, store, elements):
        built = store.get_or_build_ephemeris(elements, duration_s=DURATION_S, step_s=STEP_S)
        assert store.stats.misses == 1 and store.stats.writes == 1

        warm = ArtifactStore(store.root.parent)
        loaded = warm.get_or_build_ephemeris(elements, duration_s=DURATION_S, step_s=STEP_S)
        assert warm.stats.hits == 1 and warm.stats.misses == 0
        np.testing.assert_array_equal(loaded.times_s, built.times_s)
        np.testing.assert_array_equal(loaded.positions_ecef_km, built.positions_ecef_km)
        assert loaded.names == built.names

    def test_site_budget_round_trips_bit_exactly(self, store, elements):
        ephemeris = store.get_or_build_ephemeris(
            elements, duration_s=DURATION_S, step_s=STEP_S
        )
        site = all_ground_nodes()[0]
        model = paper_satellite_fso()
        built = store.get_or_build_site_budget(site, ephemeris, model)
        direct = compute_site_budget(site, ephemeris, model)

        warm = ArtifactStore(store.root.parent)
        loaded = warm.get_or_build_site_budget(site, ephemeris, model)
        assert warm.stats.hits == 1
        for a, b, c in zip(
            _budget_arrays(loaded), _budget_arrays(built), _budget_arrays(direct)
        ):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    def test_sparse_site_budget_round_trips_read_only(self, store, elements):
        """Only computed points are stored; the load scatters them into
        read-only dense arrays bit-equal to a fresh compute."""
        ephemeris = store.get_or_build_ephemeris(
            elements, duration_s=DURATION_S, step_s=STEP_S
        )
        site = all_ground_nodes()[0]
        model = paper_satellite_fso()
        direct = compute_site_budget(site, ephemeris, model)
        store.get_or_build_site_budget(site, ephemeris, model)
        with np.load(_budget_payload(store, ephemeris, site, model)) as npz:
            assert npz.files == ["points"]
            index = npz["points"]["index"]
        np.testing.assert_array_equal(
            index, np.flatnonzero(np.isfinite(direct.slant_range_km))
        )
        assert 0 < index.size < direct.usable.size // 4

        warm = ArtifactStore(store.root.parent)
        loaded = warm.get_or_build_site_budget(site, ephemeris, model)
        assert warm.stats.hits == 1 and warm.stats.writes == 0
        for a, b in zip(_budget_arrays(loaded), _budget_arrays(direct)):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            loaded.transmissivity[0, 0] = 1.0

    def test_out_of_range_budget_index_rebuilt(self, store, elements):
        ephemeris = store.get_or_build_ephemeris(
            elements, duration_s=DURATION_S, step_s=STEP_S
        )
        site = all_ground_nodes()[0]
        model = paper_satellite_fso()
        built = store.get_or_build_site_budget(site, ephemeris, model)
        payload = _budget_payload(store, ephemeris, site, model)
        with np.load(payload) as npz:
            arrays = {name: npz[name] for name in npz.files}
        arrays["points"]["index"][-1] = built.usable.size  # one past the end
        with open(payload, "wb") as fh:
            np.savez(fh, **arrays)

        warm = ArtifactStore(store.root.parent)
        loaded = warm.get_or_build_site_budget(site, ephemeris, model)
        assert warm.stats.rebuilds == 1 and warm.stats.hits == 0
        for a, b in zip(_budget_arrays(loaded), _budget_arrays(built)):
            np.testing.assert_array_equal(a, b)

    def test_warm_arrays_are_read_only_views(self, store, elements):
        """Warm loads are zero-copy memmaps; writes must be rejected."""
        store.get_or_build_ephemeris(elements, duration_s=DURATION_S, step_s=STEP_S)
        warm = ArtifactStore(store.root.parent)
        loaded = warm.get_or_build_ephemeris(elements, duration_s=DURATION_S, step_s=STEP_S)
        positions = loaded.positions_ecef_km
        # Ephemeris normalises to a base ndarray view; the buffer must
        # still be the file mapping (no copy) and stay unwritable.
        assert isinstance(positions, np.memmap) or isinstance(positions.base, np.memmap)
        assert not positions.flags.writeable
        with pytest.raises((ValueError, OSError)):
            positions[0, 0, 0] = 0.0

    def test_budget_table_served_through_store(self, store, elements):
        ephemeris = store.get_or_build_ephemeris(
            elements, duration_s=DURATION_S, step_s=STEP_S
        )
        table = store.get_or_build_budget_table(
            ephemeris, list(all_ground_nodes()[:3]), paper_satellite_fso()
        )
        table.compute_all()
        assert store.stats.writes == 1 + 3  # ephemeris + three sites

        warm_store = ArtifactStore(store.root.parent)
        warm = warm_store.get_or_build_budget_table(
            warm_store.get_or_build_ephemeris(elements, duration_s=DURATION_S, step_s=STEP_S),
            list(all_ground_nodes()[:3]),
            paper_satellite_fso(),
        )
        warm.compute_all()
        assert warm_store.stats.misses == 0 and warm_store.stats.rebuilds == 0
        for site in all_ground_nodes()[:3]:
            for a, b in zip(
                _budget_arrays(warm.budget(site.name)),
                _budget_arrays(table.budget(site.name)),
            ):
                np.testing.assert_array_equal(a, b)


class TestCorruptionRecovery:
    def _seed_ephemeris(self, store, elements):
        built = store.get_or_build_ephemeris(elements, duration_s=DURATION_S, step_s=STEP_S)
        digest = ephemeris_build_key(elements, duration_s=DURATION_S, step_s=STEP_S)
        return built, store.payload_path("ephemeris", digest), store.sidecar_path(
            "ephemeris", digest
        )

    def test_truncated_payload_rebuilt(self, store, elements):
        built, payload, _ = self._seed_ephemeris(store, elements)
        payload.write_bytes(payload.read_bytes()[: payload.stat().st_size // 2])

        warm = ArtifactStore(store.root.parent)
        loaded = warm.get_or_build_ephemeris(elements, duration_s=DURATION_S, step_s=STEP_S)
        assert warm.stats.rebuilds == 1 and warm.stats.hits == 0
        np.testing.assert_array_equal(loaded.positions_ecef_km, built.positions_ecef_km)
        # the rebuilt artifact is intact again
        again = ArtifactStore(store.root.parent)
        again.get_or_build_ephemeris(elements, duration_s=DURATION_S, step_s=STEP_S)
        assert again.stats.hits == 1 and again.stats.rebuilds == 0

    def test_flipped_byte_caught_by_crc(self, store, elements):
        built, payload, _ = self._seed_ephemeris(store, elements)
        raw = bytearray(payload.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # flip one interior (array data) byte
        payload.write_bytes(bytes(raw))

        warm = ArtifactStore(store.root.parent)
        loaded = warm.get_or_build_ephemeris(elements, duration_s=DURATION_S, step_s=STEP_S)
        assert warm.stats.rebuilds == 1
        np.testing.assert_array_equal(loaded.positions_ecef_km, built.positions_ecef_km)

    def test_mismatched_sidecar_rebuilt(self, store, elements):
        built, _, sidecar = self._seed_ephemeris(store, elements)
        meta = json.loads(sidecar.read_text())
        meta["digest"] = "0" * 64
        sidecar.write_text(json.dumps(meta))

        warm = ArtifactStore(store.root.parent)
        loaded = warm.get_or_build_ephemeris(elements, duration_s=DURATION_S, step_s=STEP_S)
        assert warm.stats.rebuilds == 1
        np.testing.assert_array_equal(loaded.positions_ecef_km, built.positions_ecef_km)

    def test_missing_sidecar_rebuilt(self, store, elements):
        built, _, sidecar = self._seed_ephemeris(store, elements)
        sidecar.unlink()

        warm = ArtifactStore(store.root.parent)
        loaded = warm.get_or_build_ephemeris(elements, duration_s=DURATION_S, step_s=STEP_S)
        assert warm.stats.rebuilds == 1
        np.testing.assert_array_equal(loaded.positions_ecef_km, built.positions_ecef_km)

    def test_compressed_payload_served_via_fallback(self, store, elements):
        """A non-standard (compressed) payload is still served, not rebuilt."""
        built, payload, _ = self._seed_ephemeris(store, elements)
        with np.load(payload) as npz:
            arrays = {name: npz[name] for name in npz.files}
        with open(payload, "wb") as fh:
            np.savez_compressed(fh, **arrays)

        warm = ArtifactStore(store.root.parent)
        loaded = warm.get_or_build_ephemeris(elements, duration_s=DURATION_S, step_s=STEP_S)
        assert warm.stats.hits == 1 and warm.stats.rebuilds == 0
        np.testing.assert_array_equal(loaded.positions_ecef_km, built.positions_ecef_km)


class TestDefaultStore:
    def test_env_var_opts_in(self, tmp_path, monkeypatch):
        previous = set_default_store(None)
        try:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
            set_default_store.__globals__["_default"] = (
                set_default_store.__globals__["_UNSET"]
            )
            resolved = default_store()
            assert isinstance(resolved, ArtifactStore)
            assert resolved.root.parent == tmp_path / "env-cache"
        finally:
            set_default_store(previous)

    def test_unset_env_means_disabled(self, monkeypatch):
        previous = set_default_store(None)
        try:
            monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
            set_default_store.__globals__["_default"] = (
                set_default_store.__globals__["_UNSET"]
            )
            assert default_store() is None
        finally:
            set_default_store(previous)

    def test_set_and_restore(self, tmp_path):
        store = ArtifactStore(tmp_path)
        previous = set_default_store(store)
        try:
            assert default_store() is store
        finally:
            set_default_store(previous)

    def test_rejects_wrong_type(self):
        with pytest.raises(ValidationError):
            set_default_store("not-a-store")


class TestStoreStats:
    """Hit/miss accounting on the public ``stats`` attribute and in obs."""

    def test_cold_run_counts_misses_and_writes(self, tmp_path, elements):
        store = ArtifactStore(tmp_path / "cache")
        store.get_or_build_ephemeris(elements, duration_s=DURATION_S, step_s=STEP_S)
        stats = store.stats.as_dict()
        assert stats["misses"] > 0
        assert stats["writes"] > 0
        assert stats["hits"] == 0

    def test_warm_run_hits_without_misses(self, tmp_path, elements):
        root = tmp_path / "cache"
        cold = ArtifactStore(root)
        built = cold.get_or_build_ephemeris(
            elements, duration_s=DURATION_S, step_s=STEP_S
        )
        warm = ArtifactStore(root)
        loaded = warm.get_or_build_ephemeris(
            elements, duration_s=DURATION_S, step_s=STEP_S
        )
        np.testing.assert_array_equal(built.positions_ecef_km, loaded.positions_ecef_km)
        stats = warm.stats.as_dict()
        assert stats["hits"] > 0
        assert stats["misses"] == 0
        assert stats["rebuilds"] == 0

    def test_obs_counters_mirror_stats(self, tmp_path, elements):
        from repro import obs

        root = tmp_path / "cache"
        ArtifactStore(root).get_or_build_ephemeris(
            elements, duration_s=DURATION_S, step_s=STEP_S
        )
        obs.reset()
        obs.enable()
        try:
            warm = ArtifactStore(root)
            warm.get_or_build_ephemeris(elements, duration_s=DURATION_S, step_s=STEP_S)
            snap = obs.registry().snapshot()
        finally:
            obs.disable()
            obs.reset()
        assert snap["store.hits"]["value"] == warm.stats.hits > 0
        assert snap["store.misses"]["value"] == 0
