"""Tests for the fast constellation-sweep engine."""

import numpy as np
import pytest

from repro import obs
from repro.core.analysis import SpaceGroundAnalysis
from repro.core.sweeps import run_constellation_sweep
from repro.channels.presets import paper_satellite_fso
from repro.data.ground_nodes import all_ground_nodes
from repro.errors import ValidationError
from tests.core.prefix_coverage import prefix_coverage


@pytest.fixture(scope="module")
def small_sweep(day_eph):
    return run_constellation_sweep(
        sizes=[6, 18, 36],
        ephemeris=day_eph,
        step_s=300.0,
        n_requests=20,
        n_time_steps=20,
        seed=5,
    )


@pytest.fixture(scope="module")
def day_eph():
    from repro.orbits.ephemeris import generate_movement_sheet
    from repro.orbits.walker import qntn_constellation

    return generate_movement_sheet(qntn_constellation(36), duration_s=86400.0, step_s=300.0)


class TestCumulativeCoverage:
    def test_row_k_matches_prefix_analysis(self, day_eph, sites):
        """Cumulative masks equal per-prefix recomputation."""
        full = SpaceGroundAnalysis(day_eph, sites, paper_satellite_fso())
        cumulative = full.cumulative_all_pairs_connected()
        for n in (6, 18, 36):
            prefix = SpaceGroundAnalysis(
                day_eph.subset(range(n)), sites, paper_satellite_fso()
            )
            np.testing.assert_array_equal(cumulative[n - 1], prefix.all_pairs_connected())

    def test_monotone_in_satellite_axis(self, day_eph, sites):
        analysis = SpaceGroundAnalysis(day_eph, sites, paper_satellite_fso())
        cumulative = analysis.cumulative_all_pairs_connected()
        # Adding a satellite can only turn False -> True.
        assert not np.any(cumulative[:-1] & ~cumulative[1:])


class TestRunConstellationSweep:
    def test_point_structure(self, small_sweep):
        assert small_sweep.sizes == [6, 18, 36]
        assert len(small_sweep.coverage_percentages) == 3
        assert len(small_sweep.served_percentages) == 3
        assert len(small_sweep.mean_fidelities) == 3

    def test_coverage_monotone(self, small_sweep):
        assert small_sweep.coverage_percentages == sorted(small_sweep.coverage_percentages)

    def test_matches_slow_coverage_sweep(self, day_eph, sites, small_sweep):
        """Cumulative prefix coverage equals one analysis per size."""
        slow = prefix_coverage(day_eph, [6, 18, 36], sites)
        assert [point.coverage for point in small_sweep.points] == slow

    def test_matches_architecture_evaluate(self, day_eph):
        """The sweep's per-size service matches a standalone evaluation."""
        from repro.core.architecture import SpaceGroundArchitecture

        sweep = run_constellation_sweep(
            sizes=[36],
            ephemeris=day_eph,
            step_s=300.0,
            n_requests=20,
            n_time_steps=20,
            seed=5,
        )
        arch = SpaceGroundArchitecture(
            36, duration_s=86400.0, step_s=300.0, ephemeris=day_eph
        )
        result = arch.evaluate(n_requests=20, n_time_steps=20, seed=5)
        point = sweep.points[0]
        assert point.coverage.percentage == pytest.approx(result.coverage_percentage)
        assert point.service.served_fraction == pytest.approx(
            result.service.served_fraction
        )
        assert point.service.mean_fidelity == pytest.approx(result.mean_fidelity)

    def test_rejects_unsorted_sizes(self, day_eph):
        with pytest.raises(ValidationError, match="ascending"):
            run_constellation_sweep(sizes=[36, 6], ephemeris=day_eph)

    def test_rejects_repeated_sizes(self):
        """A repeated size would serve and count its requests twice."""
        obs.reset()
        obs.enable()
        try:
            with pytest.raises(ValidationError, match="strictly ascending"):
                run_constellation_sweep(
                    sizes=[12, 12],
                    duration_s=7200.0,
                    step_s=60.0,
                    n_requests=20,
                    n_time_steps=10,
                )
            sweep = run_constellation_sweep(
                sizes=[6, 12], duration_s=7200.0, step_s=60.0, n_requests=20, n_time_steps=10
            )
            outcomes = sum(
                obs.counter(f"network.requests.{kind}").value for kind in ("served", "denied")
            )
        finally:
            obs.disable()
            obs.reset()
        assert sweep.sizes == [6, 12]
        assert outcomes == 20 * 10

    def test_rejects_empty_sizes(self, day_eph):
        with pytest.raises(ValidationError):
            run_constellation_sweep(sizes=[], ephemeris=day_eph)

    def test_rejects_small_ephemeris(self, small_ephemeris):
        with pytest.raises(ValidationError):
            run_constellation_sweep(sizes=[36], ephemeris=small_ephemeris)

    @pytest.mark.parametrize("sizes", [[0, 6], [-6, 6], [0]])
    def test_rejects_sizes_below_one(self, sizes):
        with pytest.raises(ValidationError, match=">= 1"):
            run_constellation_sweep(sizes=sizes, duration_s=3600.0)

    def test_rejects_negative_workers(self, day_eph):
        with pytest.raises(ValidationError, match="n_workers"):
            run_constellation_sweep(sizes=[6], ephemeris=day_eph, n_workers=-3)

    @pytest.mark.parametrize("sizes", [[6.5], ["6"], [True, 6], [6, 12.0]])
    def test_rejects_non_integer_sizes(self, sizes):
        with pytest.raises(ValidationError, match="integers"):
            run_constellation_sweep(sizes=sizes, duration_s=3600.0)

    def test_numpy_integer_sizes_run(self, day_eph, small_sweep):
        sweep = run_constellation_sweep(
            sizes=list(np.array([6, 18, 36])),
            ephemeris=day_eph,
            step_s=300.0,
            n_requests=20,
            n_time_steps=20,
            seed=5,
        )
        assert sweep.points == small_sweep.points

    def test_rejects_zero_requests(self, day_eph):
        with pytest.raises(ValidationError, match="n_requests"):
            run_constellation_sweep(sizes=[6], ephemeris=day_eph, n_requests=0)

    def test_worker_count_does_not_change_points(self, day_eph):
        """The per-step (request x size) arrays cross the process pool."""
        kwargs = dict(
            sizes=[1, 6, 12, 36],
            ephemeris=day_eph,
            step_s=300.0,
            n_requests=30,
            n_time_steps=40,
            seed=11,
        )
        serial = run_constellation_sweep(n_workers=0, **kwargs)
        pooled = run_constellation_sweep(n_workers=2, **kwargs)
        assert pooled.points == serial.points
        assert serial.points[-1].service.fidelities  # a sweep that served
