"""Differential tests for the one site-budget form: kept-point records.

A :class:`~repro.engine.budgets.SiteLinkBudget` holds only the records
of the points the horizon cull keeps; its dense views are scattered
from them. These tests pin that form against test-only dense oracles:
the unculled geometry kernel for the fill, a fresh fill on a sliced
ephemeris for ``at_time_indices``, the scalar fault queries, sample by sample, for
``faulted_site_budget``, and a schema-3 artifact spelled out by hand for
the store. The records are the one ground-satellite link budget: the
scalar channel evaluation agrees with them at the horizon, and the link
state's ground-satellite columns are them, scattered onto its grid.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.channels.presets import paper_satellite_fso
from repro.data.ground_nodes import all_ground_nodes
from repro.engine import store as store_module
from repro.engine.budgets import (
    POINT_DTYPE,
    LinkBudgetTable,
    compute_site_budget,
    fill_budget_block,
)
from repro.engine.linkstate import ELEVATED, HEALTHY, OPEN, USABLE, VISIBLE, LinkStateCache
from repro.engine.store import (
    SCHEMA_VERSION,
    ArtifactStore,
    ephemeris_fingerprint,
    site_budget_key,
)
from repro.errors import ValidationError
from repro.faults import load_faults
from repro.network.links import LinkPolicy
from repro.network.topology import attach_satellites, build_qntn_ground_network
from repro.orbits.visibility import (
    CULLED_ELEVATION_RAD,
    elevation_and_slant_range,
    geometry_gates,
)
from repro.parallel.shm import ShmArena, ShmAttachment, attach_budget_table, publish_budget_table

EXAMPLE_FAULTS = Path(__file__).parents[2] / "benchmarks" / "results" / "example_faults.json"

#: Every seventh Table I site: all four LANs, 5 of the 31 sites.
SITES = all_ground_nodes()[::7]

VIEWS = ("elevation_rad", "slant_range_km", "transmissivity", "usable")


def _dense_oracle(site, ephemeris, model, policy):
    """The unculled budget: geometry at every point, then the fill."""
    el, rng = elevation_and_slant_range(
        site.lat_rad, site.lon_rad, site.alt_km, ephemeris.positions_ecef_km
    )
    eta, usable = fill_budget_block(el, rng, model, policy, 500.0)
    return el, rng, eta, usable


def _dense_faulted_oracle(plane, eta, usable, site_name, ephemeris, policy):
    """The fault rule on dense arrays, one sample at a time through the
    scalar queries: fade, re-threshold, gate."""
    eta, usable = eta.copy(), usable.copy()
    for j, t in enumerate(ephemeris.times_s.tolist()):
        factor = plane.fade_factor(site_name, t)
        if factor != 1.0:
            eta[:, j] = eta[:, j] * factor
            usable[:, j] &= eta[:, j] >= policy.transmissivity_threshold
        site_down = plane.node_down(site_name, t)
        for i, name in enumerate(ephemeris.names):
            if site_down or plane.node_down(name, t) or plane.link_cut(site_name, name, t):
                usable[i, j] = False
    return eta, usable


def _assert_same_budget(a, b):
    """Field for field: shape, record bytes, healthy mask, dense views."""
    assert a.site == b.site and a.shape == b.shape
    assert a.points.dtype == b.points.dtype
    assert a.points.tobytes() == b.points.tobytes()
    if a.usable_healthy is None:
        assert b.usable_healthy is None
    else:
        np.testing.assert_array_equal(a.usable_healthy, b.usable_healthy)
    for name in (*VIEWS, "healthy_usable"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@pytest.fixture(params=["day", "short"])
def ephemeris(request, day_ephemeris_108, small_ephemeris):
    return day_ephemeris_108 if request.param == "day" else small_ephemeris


class TestDenseViews:
    @pytest.mark.parametrize("site", SITES, ids=lambda s: s.name)
    def test_views_equal_dense_oracle(self, site, ephemeris):
        model, policy = paper_satellite_fso(), LinkPolicy()
        budget = compute_site_budget(site, ephemeris, model, policy=policy)
        el, rng, eta, usable = _dense_oracle(site, ephemeris, model, policy)
        shape = (ephemeris.n_platforms, ephemeris.n_samples)
        assert budget.shape == shape
        assert budget.points.dtype == POINT_DTYPE
        index = budget.points["index"]
        assert np.all(np.diff(index) > 0)
        kept = np.zeros(shape, dtype=bool)
        kept.reshape(-1)[index] = True
        assert kept.any() and not kept.all()
        # Records carry the dense kernel's floats; every other point was
        # at or below the horizon.
        for name, dense in zip(VIEWS, (el, rng, eta, usable)):
            view = getattr(budget, name)
            assert view.shape == shape and view.dtype == dense.dtype
            assert not view.flags.writeable
            assert view[kept].tobytes() == dense[kept].tobytes(), name
            assert budget.points[name].tobytes() == dense.reshape(-1)[index].tobytes()
        assert np.all(el[~kept] <= 0.0)
        assert np.all(budget.elevation_rad[~kept] == CULLED_ELEVATION_RAD)
        assert np.all(budget.slant_range_km[~kept] == np.inf)
        # Transmissivity and admission need no mask: bit-equal everywhere.
        assert budget.transmissivity.tobytes() == eta.tobytes()
        assert budget.usable.tobytes() == usable.tobytes()
        assert budget.healthy_usable is budget.usable


class TestOneFill:
    """One ground-satellite link budget, under one horizon rule (el > 0)."""

    def test_near_horizon_eta_equals_scalar_channel(self, day_ephemeris_108, sites):
        """At a point with 0 < el <= 1e-3 the record carries the scalar
        ``QuantumChannel.evaluate_physics`` η, not 0."""
        model = paper_satellite_fso()
        network = build_qntn_ground_network()
        attach_satellites(network, day_ephemeris_108, model)
        n_checked = 0
        for site in sites:
            points = compute_site_budget(site, day_ephemeris_108, model).points
            low = points[(points["elevation_rad"] > 0.0) & (points["elevation_rad"] <= 1e-3)]
            for record in low[:3]:
                row, k = divmod(int(record["index"]), day_ephemeris_108.n_samples)
                channel = network.channel_between(site.name, day_ephemeris_108.names[row])
                state = channel.evaluate_physics(float(day_ephemeris_108.times_s[k]))
                assert state.elevation_rad == pytest.approx(record["elevation_rad"], rel=1e-9)
                assert state.transmissivity > 0.0
                # Scalar matmul against einsum geometry: rounding only.
                assert record["transmissivity"] == pytest.approx(
                    state.transmissivity, rel=1e-9
                )
                assert not record["usable"] and not state.usable
                n_checked += 1
        assert n_checked > 0, "the day has near-horizon points"

    @pytest.mark.parametrize("faulted", [False, True], ids=["healthy", "faulted"])
    @pytest.mark.parametrize("build", ["eager"])  # the id keeps test ids stable
    def test_link_state_columns_are_the_records(
        self, day_ephemeris_108, sites, build, faulted
    ):
        """Every ground-satellite column of the link state is its site's
        records scattered onto the grid: η bit-equal, admission and
        geometry bits equal, healthy and under ``example_faults.json``."""
        plane = (
            load_faults(EXAMPLE_FAULTS).realize(seed=7, horizon_s=86400.0).compile()
            if faulted
            else None
        )
        model, policy = paper_satellite_fso(), LinkPolicy()
        network = build_qntn_ground_network()
        attach_satellites(network, day_ephemeris_108, model)
        cache = LinkStateCache(network, policy=policy, faults=plane)
        table = LinkBudgetTable(day_ephemeris_108, sites, model, policy=policy, faults=plane)
        column = {frozenset(pair): c for c, pair in enumerate(cache._pairs)}
        geometry = VISIBLE | ELEVATED
        for site in sites:
            budget = table.budget(site.name)
            cols = [column[frozenset((site.name, sat))] for sat in day_ephemeris_108.names]
            eta = np.ascontiguousarray(cache._eta[:, cols].T)
            gates = cache._gates[:, cols].T
            assert eta.tobytes() == budget.transmissivity.tobytes(), site.name
            expected = geometry_gates(budget.elevation_rad, policy.min_elevation_rad)
            np.testing.assert_array_equal(gates & geometry, expected & geometry)
            np.testing.assert_array_equal((gates & USABLE) != 0, budget.usable)
            np.testing.assert_array_equal((gates & HEALTHY) != 0, budget.healthy_usable)
            is_open = (gates & OPEN) != 0
            if faulted:
                # The plane only closes links: OPEN within the geometry's.
                assert not np.any(is_open & ((expected & OPEN) == 0))
            else:
                np.testing.assert_array_equal(is_open, (expected & OPEN) != 0)


class TestTimeSlice:
    @pytest.mark.parametrize("faulted", [False, True], ids=["healthy", "faulted"])
    def test_slice_equals_fresh_fill(self, ephemeris, faulted):
        """Slicing a full-horizon table equals filling the sliced
        ephemeris: the check the sweep's second budget pass used to be."""
        plane = (
            load_faults(EXAMPLE_FAULTS).realize(seed=7, horizon_s=86400.0).compile()
            if faulted
            else None
        )
        model = paper_satellite_fso()
        table = LinkBudgetTable(ephemeris, SITES, model, faults=plane)
        for idx in (
            np.linspace(0, ephemeris.n_samples - 1, 10).astype(int),
            np.arange(0, ephemeris.n_samples, 7),
            [ephemeris.n_samples - 1],
        ):
            sliced = table.at_time_indices(idx)
            fresh = LinkBudgetTable(
                ephemeris.at_time_indices(idx), SITES, model, faults=plane
            )
            np.testing.assert_array_equal(sliced.ephemeris.times_s, fresh.ephemeris.times_s)
            for site in SITES:
                _assert_same_budget(sliced.budget(site.name), fresh.budget(site.name))

    @pytest.mark.parametrize(
        "idx", [[3, 3], [5, 2], [0, 4, 4, 9], [-1], "end"], ids=str
    )
    def test_non_increasing_or_out_of_grid_indices_rejected(self, small_ephemeris, idx):
        budget = compute_site_budget(SITES[0], small_ephemeris, paper_satellite_fso())
        if idx == "end":
            idx = [0, small_ephemeris.n_samples]
        with pytest.raises(ValidationError):
            budget.at_time_indices(idx)

    def test_table_rejects_non_increasing_indices(self, small_ephemeris):
        table = LinkBudgetTable(small_ephemeris, SITES, paper_satellite_fso())
        with pytest.raises(ValidationError):
            table.at_time_indices([5, 2])


class TestFaultedRecords:
    def test_equals_dense_fault_derivation(self, day_ephemeris_108, sites):
        """``example_faults.json`` on the records matches the dense
        derivation bit for bit, suppressed-step count included."""
        plane = load_faults(EXAMPLE_FAULTS).realize(seed=7, horizon_s=86400.0).compile()
        model, policy = paper_satellite_fso(), LinkPolicy()
        healthy = LinkBudgetTable(day_ephemeris_108, sites, model, policy=policy)
        healthy.compute_all()
        expected_suppressed = 0
        oracle = {}
        for site in sites:
            budget = healthy.budget(site.name)
            eta, usable = _dense_faulted_oracle(
                plane, budget.transmissivity, budget.usable, site.name, day_ephemeris_108, policy
            )
            oracle[site.name] = (eta, usable)
            expected_suppressed += int(np.count_nonzero(budget.usable & ~usable))
        assert expected_suppressed > 0

        obs.reset()
        obs.enable()
        try:
            faulted = LinkBudgetTable(
                day_ephemeris_108, sites, model, policy=policy, faults=plane
            )
            faulted.compute_all()
            suppressed = obs.counter("faults.link_steps.suppressed").value
        finally:
            obs.disable()
            obs.reset()
        assert suppressed == expected_suppressed
        for site in sites:
            budget, base = faulted.budget(site.name), healthy.budget(site.name)
            eta, usable = oracle[site.name]
            assert budget.transmissivity.tobytes() == eta.tobytes()
            assert budget.usable.tobytes() == usable.tobytes()
            assert budget.healthy_usable.tobytes() == base.usable.tobytes()
            assert budget.elevation_rad.tobytes() == base.elevation_rad.tobytes()
            assert budget.slant_range_km.tobytes() == base.slant_range_km.tobytes()


class TestStoredRecords:
    def test_hand_written_schema_3_artifact_loads(self, tmp_path, small_ephemeris):
        """An artifact in the schema-3 layout, written without the
        store's own writer, is a hit and equals a fresh fill."""
        # The record layout as schema 3 persists it (schema 2's, with η
        # under the one horizon rule), spelled out here so a change to
        # POINT_DTYPE cannot silently follow along.
        schema_3_dtype = np.dtype(
            [
                ("index", "<i8"),
                ("elevation_rad", "<f8"),
                ("slant_range_km", "<f8"),
                ("transmissivity", "<f8"),
                ("usable", "?"),
            ]
        )
        assert SCHEMA_VERSION == 3
        model, policy = paper_satellite_fso(), LinkPolicy()
        fp = ephemeris_fingerprint(small_ephemeris)
        root = tmp_path / f"v{SCHEMA_VERSION}"
        root.mkdir()
        for site in SITES:
            el, rng, eta, usable = _dense_oracle(site, small_ephemeris, model, policy)
            index = compute_site_budget(site, small_ephemeris, model, policy=policy).points[
                "index"
            ]
            points = np.empty(index.size, dtype=schema_3_dtype)
            points["index"] = index
            for name, dense in zip(VIEWS, (el, rng, eta, usable)):
                points[name] = dense.reshape(-1)[index]
            digest = site_budget_key(fp, site, model, policy=policy, platform_altitude_km=500.0)
            with open(root / f"site-budget-{digest}.npz", "wb") as fh:
                np.savez(fh, points=points)
            sidecar = {
                "digest": digest,
                "kind": "site-budget",
                "schema": 3,
                "written_at_unix_s": 0.0,
                "arrays": {"points": {"shape": [index.size], "dtype": "|V33"}},
                "site": dataclasses.asdict(site),
            }
            (root / f"site-budget-{digest}.json").write_text(json.dumps(sidecar))

        store = ArtifactStore(tmp_path)
        table = store.get_or_build_budget_table(small_ephemeris, SITES, model, policy=policy)
        table.compute_all()
        assert store.stats.hits == len(SITES)
        assert store.stats.rebuilds == 0 and store.stats.misses == 0
        for site in SITES:
            _assert_same_budget(
                table.budget(site.name),
                compute_site_budget(site, small_ephemeris, model, policy=policy),
            )


    def test_schema_2_directory_is_never_addressed(self, tmp_path, small_ephemeris, monkeypatch):
        """Artifacts a schema-2 store wrote are neither looked up nor
        touched: the schema-3 store misses, fills and writes its own."""
        model, policy = paper_satellite_fso(), LinkPolicy()
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "SCHEMA_VERSION", 2)
            old = ArtifactStore(tmp_path)
            old_table = old.get_or_build_budget_table(
                small_ephemeris, SITES, model, policy=policy
            )
            old_table.compute_all()
        assert old.root == tmp_path / "v2" and old.stats.writes == len(SITES)
        before = {p.name: p.read_bytes() for p in old.root.iterdir()}

        store = ArtifactStore(tmp_path)
        assert store.root == tmp_path / f"v{SCHEMA_VERSION}" != old.root
        table = store.get_or_build_budget_table(small_ephemeris, SITES, model, policy=policy)
        table.compute_all()
        assert store.stats.hits == 0 and store.stats.rebuilds == 0
        assert store.stats.misses == store.stats.writes == len(SITES)
        assert {p.name: p.read_bytes() for p in old.root.iterdir()} == before
        assert not set(before) & {p.name for p in store.root.iterdir()}
        for site in SITES:
            _assert_same_budget(
                table.budget(site.name),
                compute_site_budget(site, small_ephemeris, model, policy=policy),
            )


class TestSharedRecords:
    def test_faulted_and_empty_budgets_round_trip(self, small_ephemeris, sites):
        """Records, the healthy mask and record-less sites reach a worker
        unchanged."""
        plane = load_faults(EXAMPLE_FAULTS).realize(seed=7, horizon_s=86400.0).compile()
        model = paper_satellite_fso()
        faulted = LinkBudgetTable(small_ephemeris, sites, model, faults=plane)
        one_point = LinkBudgetTable(
            small_ephemeris.subset([0]).at_time_indices([0]), sites, model
        )
        one_point.compute_all()
        assert any(one_point.budget(s.name).points.size == 0 for s in sites)
        assert faulted.budget("ttu-0").usable_healthy is not None
        for table in (faulted, one_point):
            with ShmArena() as arena, ShmAttachment() as attachment:
                handle = publish_budget_table(arena, table)
                rebuilt = attach_budget_table(handle, attachment)
                for site in sites:
                    _assert_same_budget(rebuilt.budget(site.name), table.budget(site.name))
