"""Tests for served-request and fidelity evaluation (Figs. 7-8)."""

import math

import numpy as np
import pytest

from repro.core.evaluation import ServiceResult, evaluate_requests, evaluation_time_indices
from repro.core.requests import generate_requests
from repro.errors import ValidationError


class TestEvaluationTimeIndices:
    def test_spread_over_horizon(self):
        idx = evaluation_time_indices(2880, 100)
        assert idx.size == 100
        assert idx[0] == 0
        assert idx[-1] == 2879
        assert np.all(np.diff(idx) > 0)

    def test_fewer_samples_than_steps(self):
        idx = evaluation_time_indices(10, 100)
        np.testing.assert_array_equal(idx, np.arange(10))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            evaluation_time_indices(0, 10)
        with pytest.raises(ValidationError):
            evaluation_time_indices(10, 0)

    def test_indices_strictly_increasing_exhaustive(self):
        """No duplicate evaluation steps for any (n_samples, n_steps).

        Guards the documented invariant: when steps < samples the
        linspace stride exceeds one, so integer truncation can never
        emit the same index twice. Scans every grid up to 300 samples
        plus the paper-scale grids.
        """
        for n_samples in range(1, 301):
            for n_steps in range(1, n_samples + 2):
                idx = evaluation_time_indices(n_samples, n_steps)
                assert idx.size == min(n_samples, n_steps)
                assert np.all(np.diff(idx) >= 1)
                assert 0 <= idx[0] and idx[-1] <= n_samples - 1
        for n_samples, n_steps in [(2880, 100), (2880, 2879), (86401, 100)]:
            idx = evaluation_time_indices(n_samples, n_steps)
            assert idx.size == n_steps
            assert np.unique(idx).size == idx.size


class TestServiceResultEquality:
    @staticmethod
    def _nothing_served():
        return ServiceResult(10, 2, 0.0, float("nan"), (), (0.0, 0.0))

    def test_results_that_served_nothing_are_equal(self):
        a, b = self._nothing_served(), self._nothing_served()
        assert math.isnan(a.mean_fidelity)
        assert a == b and hash(a) == hash(b)

    def test_nan_differs_from_a_number(self):
        served = ServiceResult(10, 2, 0.0, 0.5, (), (0.0, 0.0))
        assert self._nothing_served() != served

    def test_every_other_field_still_compared(self):
        base = ServiceResult(10, 2, 0.5, 0.9, (0.9,), (0.5, 0.5))
        assert base == ServiceResult(10, 2, 0.5, 0.9, (0.9,), (0.5, 0.5))
        assert base != ServiceResult(10, 2, 0.5, 0.9, (0.9,), (0.5, 0.5), queue_drops=1)
        assert base != ServiceResult(10, 2, 0.5, 0.9, (0.8,), (0.5, 0.5))
        assert base != "not a result"


class TestEvaluateRequestsSpace(object):
    def test_result_structure(self, sat_analysis_small, sites):
        requests = generate_requests(sites, 20, seed=1)
        result = evaluate_requests(sat_analysis_small, requests, n_time_steps=10)
        assert isinstance(result, ServiceResult)
        assert result.n_requests == 20
        assert result.n_time_steps == 10
        assert 0.0 <= result.served_fraction <= 1.0
        assert len(result.served_per_step) == 10

    def test_fidelities_bounded(self, sat_analysis_small, sites):
        requests = generate_requests(sites, 20, seed=1)
        result = evaluate_requests(sat_analysis_small, requests, n_time_steps=10)
        for f in result.fidelities:
            assert 0.5 < f <= 1.0

    def test_fidelity_convention_changes_values(self, sat_analysis_small, sites):
        requests = generate_requests(sites, 20, seed=1)
        sqrt_result = evaluate_requests(
            sat_analysis_small, requests, n_time_steps=10, fidelity_convention="sqrt"
        )
        sq_result = evaluate_requests(
            sat_analysis_small, requests, n_time_steps=10, fidelity_convention="squared"
        )
        if sqrt_result.fidelities:
            assert sq_result.mean_fidelity < sqrt_result.mean_fidelity

    def test_served_percentage_property(self, sat_analysis_small, sites):
        requests = generate_requests(sites, 10, seed=2)
        result = evaluate_requests(sat_analysis_small, requests, n_time_steps=5)
        assert result.served_percentage == pytest.approx(100.0 * result.served_fraction)

    def test_rejects_empty_requests(self, sat_analysis_small):
        with pytest.raises(ValidationError):
            evaluate_requests(sat_analysis_small, [])


class TestQueueCapacity:
    def test_finite_queue_drops_requests(self, sites):
        """Relaxing the infinite-queue assumption caps served requests."""
        from repro.channels.presets import paper_hap_fso
        from repro.core.analysis import AirGroundAnalysis
        from repro.constants import (
            QNTN_HAP_ALTITUDE_KM,
            QNTN_HAP_LAT_DEG,
            QNTN_HAP_LON_DEG,
        )

        analysis = AirGroundAnalysis(
            sites,
            paper_hap_fso(),
            hap_lat_deg=QNTN_HAP_LAT_DEG,
            hap_lon_deg=QNTN_HAP_LON_DEG,
            hap_alt_km=QNTN_HAP_ALTITUDE_KM,
        )
        requests = generate_requests(sites, 20, seed=3)
        unlimited = evaluate_requests(analysis, requests, n_time_steps=1)
        limited = evaluate_requests(analysis, requests, n_time_steps=1, queue_capacity=5)
        assert unlimited.served_fraction == pytest.approx(1.0)
        assert unlimited.queue_drops == 0
        assert limited.served_fraction == pytest.approx(0.25)
        assert limited.queue_drops == 15


class TestAirGroundEvaluation:
    def test_hap_serves_everything(self, sites):
        from repro.channels.presets import paper_hap_fso
        from repro.core.analysis import AirGroundAnalysis
        from repro.constants import (
            QNTN_HAP_ALTITUDE_KM,
            QNTN_HAP_LAT_DEG,
            QNTN_HAP_LON_DEG,
        )

        analysis = AirGroundAnalysis(
            sites,
            paper_hap_fso(),
            hap_lat_deg=QNTN_HAP_LAT_DEG,
            hap_lon_deg=QNTN_HAP_LON_DEG,
            hap_alt_km=QNTN_HAP_ALTITUDE_KM,
            times_s=np.arange(5.0),
        )
        requests = generate_requests(sites, 50, seed=4)
        result = evaluate_requests(analysis, requests, n_time_steps=5)
        assert result.served_fraction == pytest.approx(1.0)
        assert result.mean_fidelity == pytest.approx(0.98, abs=0.01)
