"""Shared-memory arena/attachment lifecycle and sweep determinism.

The invariants pinned here back the zero-copy dispatch plane:

* publish -> attach round-trips are byte-exact, read-only, zero-copy;
* the parent-side :class:`ShmArena` owns segment lifetime — close
  unlinks everything, is idempotent, and runs on context exit even when
  the body raises; worker-side attachments never unlink, and a view
  kept past its attachment's close stays readable;
* a pooled ``serve_stream_sharded`` run (ephemeris over shared memory)
  returns results identical to the serial in-process run, for any
  worker count, and leaves no segment behind.
"""

import glob
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.requests import generate_requests
from repro.errors import ValidationError
from repro.parallel.shm import (
    ShmArena,
    ShmAttachment,
    attach_budget_table,
    attach_ephemeris,
    publish_budget_table,
    publish_ephemeris,
)
from repro.serve import outcomes_equal, serve_stream_sharded

from tests.conftest import grid_stream


def _shm_segment_names() -> set[str]:
    return {path.rsplit("/", 1)[-1] for path in glob.glob("/dev/shm/psm_*")}


class TestArenaLifecycle:
    def test_round_trip_byte_exact(self, rng):
        data = rng.normal(size=(7, 13))
        with ShmArena() as arena, ShmAttachment() as attachment:
            spec = arena.publish(data)
            view = attachment.attach(spec)
            np.testing.assert_array_equal(view, data)
            assert view.dtype == data.dtype

    def test_attached_views_are_read_only(self, rng):
        with ShmArena() as arena, ShmAttachment() as attachment:
            view = attachment.attach(arena.publish(rng.normal(size=8)))
            assert not view.flags.writeable
            with pytest.raises((ValueError, OSError)):
                view[0] = 0.0

    def test_close_unlinks_segments(self, rng):
        before = _shm_segment_names()
        arena = ShmArena()
        spec = arena.publish(rng.normal(size=64))
        assert arena.total_bytes == 64 * 8
        arena.close()
        arena.close()  # idempotent
        assert _shm_segment_names() <= before
        with pytest.raises(FileNotFoundError):
            ShmAttachment().attach(spec)

    def test_context_exit_cleans_up_on_error(self, rng):
        before = _shm_segment_names()
        with pytest.raises(RuntimeError):
            with ShmArena() as arena:
                arena.publish(rng.normal(size=32))
                raise RuntimeError("worker blew up")
        assert _shm_segment_names() <= before

    def test_publish_rejects_closed_arena_and_empty_arrays(self):
        arena = ShmArena()
        with pytest.raises(ValidationError):
            arena.publish(np.array([]))
        arena.close()
        with pytest.raises(ValidationError):
            arena.publish(np.ones(3))

    def test_attachment_close_does_not_unlink(self, rng):
        with ShmArena() as arena:
            spec = arena.publish(rng.normal(size=16))
            attachment = ShmAttachment()
            attachment.attach(spec)
            attachment.close()
            # the segment must still be attachable: only the arena unlinks
            with ShmAttachment() as again:
                assert again.attach(spec).shape == (16,)

    def test_view_readable_after_attachment_close(self):
        # Run in a child process: reading an unmapped view is a SIGSEGV,
        # which must fail this test instead of killing the suite.
        script = """
import numpy as np
from repro.parallel.shm import ShmArena, ShmAttachment

data = np.arange(4096, dtype=float)
with ShmArena() as arena:
    spec = arena.publish(data)
    with ShmAttachment() as attachment:
        view = attachment.attach(spec)
        head = view[:8]
    del view
    assert head.tolist() == data[:8].tolist()
    print(float(head.sum()))
"""
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert proc.stdout.strip() == "28.0"


class TestHandles:
    def test_ephemeris_round_trip(self, small_ephemeris):
        with ShmArena() as arena, ShmAttachment() as attachment:
            handle = publish_ephemeris(arena, small_ephemeris)
            rebuilt = attach_ephemeris(handle, attachment)
            np.testing.assert_array_equal(rebuilt.times_s, small_ephemeris.times_s)
            np.testing.assert_array_equal(
                rebuilt.positions_ecef_km, small_ephemeris.positions_ecef_km
            )
            assert rebuilt.names == small_ephemeris.names
            assert handle.payload_bytes == (
                small_ephemeris.times_s.nbytes
                + small_ephemeris.positions_ecef_km.nbytes
            )

    def test_slices_survive_attachment_close(self, small_ephemeris):
        with ShmArena() as arena:
            handle = publish_ephemeris(arena, small_ephemeris)
            attachment = ShmAttachment()
            rebuilt = attach_ephemeris(handle, attachment)
            shard = rebuilt.at_time_indices([0, 5, 10])
            attachment.close()
            np.testing.assert_array_equal(
                shard.positions_ecef_km,
                small_ephemeris.at_time_indices([0, 5, 10]).positions_ecef_km,
            )

    def test_budget_table_round_trip(self, small_ephemeris, sites):
        from repro.channels.presets import paper_satellite_fso
        from repro.engine.budgets import LinkBudgetTable

        table = LinkBudgetTable(small_ephemeris, sites[:4], paper_satellite_fso())
        with ShmArena() as arena, ShmAttachment() as attachment:
            handle = publish_budget_table(arena, table)
            rebuilt = attach_budget_table(handle, attachment)
            assert rebuilt.site_names == table.site_names
            for name in table.site_names:
                a, b = table.budget(name), rebuilt.budget(name)
                np.testing.assert_array_equal(a.elevation_rad, b.elevation_rad)
                np.testing.assert_array_equal(a.slant_range_km, b.slant_range_km)
                np.testing.assert_array_equal(a.transmissivity, b.transmissivity)
                np.testing.assert_array_equal(a.usable, b.usable)


class TestSweepDeterminism:
    @pytest.fixture(scope="class")
    def workload(self, sites):
        return generate_requests(sites, 8, 11)

    def test_service_sweep_identical_over_shm(self, small_ephemeris, workload):
        stream = grid_stream(
            small_ephemeris, workload, range(0, small_ephemeris.n_samples, 15)
        )
        serial = serve_stream_sharded(small_ephemeris, stream, n_workers=0)
        for n_workers in (1, 2, 4):
            pooled = serve_stream_sharded(small_ephemeris, stream, n_workers=n_workers)
            assert len(pooled) == len(serial)
            assert all(outcomes_equal(a, b) for a, b in zip(serial, pooled))

    def test_no_segments_leak_after_sweep(self, small_ephemeris, workload):
        before = _shm_segment_names()
        serve_stream_sharded(
            small_ephemeris,
            grid_stream(small_ephemeris, workload, range(0, small_ephemeris.n_samples, 30)),
            n_workers=2,
        )
        assert _shm_segment_names() <= before
