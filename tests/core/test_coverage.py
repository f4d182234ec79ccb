"""Tests for coverage computation (Eqs. 6-7, Fig. 6 machinery)."""

import numpy as np
import pytest

from repro.core.coverage import CoverageResult, check_sweep_sizes, coverage_from_mask
from repro.core.sweeps import run_constellation_sweep
from repro.errors import ValidationError
from repro.utils.intervals import Interval


class TestCoverageFromMask:
    def test_full_coverage(self):
        times = np.arange(0, 100, 10.0)
        result = coverage_from_mask(
            times, np.ones(10, dtype=bool), n_satellites=6, horizon_s=100.0
        )
        assert result.percentage == pytest.approx(100.0)
        assert result.total_minutes == pytest.approx(100.0 / 60.0)
        assert len(result.intervals) == 1

    def test_no_coverage(self):
        times = np.arange(0, 100, 10.0)
        result = coverage_from_mask(
            times, np.zeros(10, dtype=bool), n_satellites=6, horizon_s=100.0
        )
        assert result.percentage == 0.0
        assert result.intervals == ()

    def test_half_coverage(self):
        times = np.arange(0, 100, 10.0)
        mask = np.array([True] * 5 + [False] * 5)
        result = coverage_from_mask(times, mask, n_satellites=12, horizon_s=100.0)
        assert result.percentage == pytest.approx(50.0)
        assert result.intervals == (Interval(0.0, 50.0),)

    def test_multiple_intervals_summed(self):
        """T_c sums interval durations exactly as Eq. 6 specifies."""
        times = np.arange(0, 60, 10.0)
        mask = np.array([True, False, True, True, False, True])
        result = coverage_from_mask(times, mask, n_satellites=6, horizon_s=60.0)
        assert len(result.intervals) == 3
        assert result.total_minutes * 60.0 == pytest.approx(40.0)


def coverage_sweep(sizes, sites, ephemeris):
    """The sweep's coverage points, with a token service workload."""
    sweep = run_constellation_sweep(
        sizes, sites=sites, ephemeris=ephemeris, n_requests=2, n_time_steps=2
    )
    return [point.coverage for point in sweep.points]


class TestCoverageSweep:
    def test_monotone_in_constellation_size(self, sites, day_ephemeris_36):
        """More satellites never reduce coverage (prefix constellations)."""
        results = coverage_sweep([6, 18, 36], sites, day_ephemeris_36)
        percentages = [r.percentage for r in results]
        assert percentages == sorted(percentages)
        assert results[0].n_satellites == 6

    @pytest.mark.parametrize(
        "sizes, match", [([0, 6], ">= 1"), ([-6, 6], ">= 1"), ([12, 6], "ascending")]
    )
    def test_rejects_sizes_the_sweep_rejects(self, sizes, match):
        """A size 0 used to report the full constellation's coverage
        (``cumulative[-1]``) and descending sizes were accepted."""
        with pytest.raises(ValidationError, match=match):
            check_sweep_sizes(sizes)

    def test_result_records_sizes(self, sites, day_ephemeris_36):
        results = coverage_sweep([12], sites, day_ephemeris_36)
        assert isinstance(results[0], CoverageResult)
        assert results[0].n_satellites == 12
        assert 0.0 <= results[0].percentage <= 100.0


class TestFullDayBlackout:
    """A never-connected day pins coverage to exactly 0.0 (ISSUE 5)."""

    TIMES = np.arange(0.0, 86400.0, 30.0)

    def test_coverage_exactly_zero(self):
        result = coverage_from_mask(
            self.TIMES,
            np.zeros(self.TIMES.size, dtype=bool),
            n_satellites=12,
            horizon_s=86400.0,
        )
        assert result.percentage == 0.0
        assert result.total_minutes == 0.0
        assert result.intervals == ()

    def test_outage_intervals_cover_the_horizon(self):
        from repro.core.coverage import outage_intervals

        outages = outage_intervals(self.TIMES, np.zeros(self.TIMES.size, dtype=bool))
        assert len(outages) == 1
        assert outages[0].start == 0.0
        assert outages[0].end == pytest.approx(86400.0)

    def test_coverage_and_outage_partition_any_mask(self):
        from repro.core.coverage import outage_intervals

        rng = np.random.default_rng(5)
        mask = rng.random(self.TIMES.size) < 0.4
        covered = coverage_from_mask(
            self.TIMES, mask, n_satellites=12, horizon_s=86400.0
        )
        outage_s = sum(iv.duration for iv in outage_intervals(self.TIMES, mask))
        assert covered.total_minutes * 60.0 + outage_s == pytest.approx(86400.0)
