"""Tests for the weather Monte Carlo study."""

import math

import pytest

from repro.channels.atmosphere import WeatherCondition
from repro.core.montecarlo import run_weather_trial, weather_study
from repro.errors import ValidationError


def _trials_equal(a, b) -> bool:
    """Field-wise equality that treats NaN fidelity as equal to NaN."""
    return (
        a.condition is b.condition
        and a.served_fraction == b.served_fraction
        and (a.mean_fidelity == b.mean_fidelity
             or (math.isnan(a.mean_fidelity) and math.isnan(b.mean_fidelity)))
    )


class TestRunWeatherTrial:
    def test_deterministic_given_seed(self):
        a = run_weather_trial(10, seed=5)
        b = run_weather_trial(10, seed=5)
        assert _trials_equal(a, b)

    def test_served_fraction_is_all_or_nothing(self):
        """Weather is regional and static within a trial: either every
        inter-LAN request is served or none are."""
        for seed in range(8):
            trial = run_weather_trial(10, seed=seed)
            assert trial.served_fraction in (0.0, 1.0)

    def test_clear_weather_serves_everything(self):
        # Find a clear-weather trial and check its outcome.
        for seed in range(30):
            trial = run_weather_trial(5, seed=seed)
            if trial.condition is WeatherCondition.CLEAR:
                assert trial.served_fraction == 1.0
                assert trial.mean_fidelity > 0.97
                return
        pytest.fail("no clear-weather trial in 30 seeds")

    def test_fog_serves_nothing(self):
        for seed in range(200):
            trial = run_weather_trial(5, seed=seed)
            if trial.condition is WeatherCondition.FOG:
                assert trial.served_fraction == 0.0
                assert math.isnan(trial.mean_fidelity)
                return
        pytest.fail("no fog trial in 200 seeds")

    def test_rejects_bad_requests(self):
        with pytest.raises(ValidationError):
            run_weather_trial(0)


class TestWeatherStudy:
    def test_aggregates(self):
        result = weather_study(n_trials=20, n_requests=10, seed=11)
        assert len(result.trials) == 20
        assert 0.0 <= result.availability <= 1.0
        assert sum(result.condition_counts().values()) == 20

    def test_weather_breaks_the_ideal_100_percent(self):
        """The paper's 100 % air-ground availability does not survive
        realistic weather (Section V's warning, quantified)."""
        result = weather_study(n_trials=60, n_requests=10, seed=11)
        assert result.availability < 1.0
        assert result.availability > 0.4  # clear/haze still dominate

    def test_fidelity_when_available_stays_high(self):
        result = weather_study(n_trials=40, n_requests=10, seed=11)
        assert result.mean_fidelity_when_available > 0.9

    def test_deterministic(self):
        a = weather_study(n_trials=10, n_requests=5, seed=3)
        b = weather_study(n_trials=10, n_requests=5, seed=3)
        assert all(_trials_equal(x, y) for x, y in zip(a.trials, b.trials))

    def test_serial_equals_pooled(self):
        """The hover geometry rides in the task; a pool changes nothing."""
        serial = weather_study(n_trials=6, n_requests=5, seed=3, n_workers=0)
        pooled = weather_study(n_trials=6, n_requests=5, seed=3, n_workers=2)
        assert len(serial.trials) == len(pooled.trials) == 6
        assert all(_trials_equal(x, y) for x, y in zip(serial.trials, pooled.trials))

    def test_rejects_bad_trials(self):
        with pytest.raises(ValidationError):
            weather_study(n_trials=0)
