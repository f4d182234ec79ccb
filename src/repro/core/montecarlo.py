"""Monte Carlo weather studies (relaxing the paper's ideal-conditions setup).

The paper assumes stable clear weather (Section III-D) and flags weather
as the HAP's key risk (Section V). This module samples regional weather
conditions — one condition per trial; at ~130 km the three cities share a
synoptic system — rebuilds the FSO models with the sampled extinction and
turbulence multipliers, and re-evaluates the air-ground architecture.
Trials are independent, so they parallelise through
:func:`repro.parallel.sweep.parallel_sweep` with per-trial seed streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.channels.atmosphere import WeatherCondition, WeatherModel
from repro.channels.fso import FSOChannelModel
from repro.channels.presets import paper_atmosphere, paper_hap_fso
from repro.constants import QNTN_HAP_ALTITUDE_KM, QNTN_HAP_LAT_DEG, QNTN_HAP_LON_DEG
from repro.core.analysis import AirGroundAnalysis
from repro.data.ground_nodes import all_ground_nodes
from repro.errors import ValidationError
from repro.utils.seeding import as_generator

__all__ = [
    "WeatherTrialResult",
    "WeatherStudyResult",
    "hap_site_geometry",
    "run_weather_trial",
    "weather_study",
]


@dataclass(frozen=True)
class WeatherTrialResult:
    """One sampled-weather day of the air-ground architecture.

    Attributes:
        condition: the sampled regional weather.
        served_fraction: fraction of requests served (0 or 1 per request;
            weather is constant within the trial).
        mean_fidelity: mean delivered fidelity (NaN when nothing served).
    """

    condition: WeatherCondition
    served_fraction: float
    mean_fidelity: float


@dataclass(frozen=True)
class WeatherStudyResult:
    """Aggregate of a weather Monte Carlo study.

    Attributes:
        trials: per-trial outcomes.
        availability: mean served fraction across trials — the all-weather
            availability of the air-ground architecture.
        mean_fidelity_when_available: fidelity conditioned on service.
    """

    trials: tuple[WeatherTrialResult, ...]

    @property
    def availability(self) -> float:
        """Mean served fraction over all trials."""
        return float(np.mean([t.served_fraction for t in self.trials]))

    @property
    def mean_fidelity_when_available(self) -> float:
        """Mean fidelity over trials that served at least one request."""
        fids = [t.mean_fidelity for t in self.trials if t.served_fraction > 0.0]
        return float(np.mean(fids)) if fids else float("nan")

    def condition_counts(self) -> dict[WeatherCondition, int]:
        """How often each condition was drawn."""
        counts: dict[WeatherCondition, int] = {}
        for t in self.trials:
            counts[t.condition] = counts.get(t.condition, 0) + 1
        return counts


def _weathered_hap_model(condition: WeatherCondition) -> FSOChannelModel:
    """The paper HAP preset with a weather condition applied."""
    base = paper_hap_fso()
    weather = WeatherModel()
    return FSOChannelModel(
        wavelength_m=base.wavelength_m,
        beam_waist_m=base.beam_waist_m,
        rx_aperture_radius_m=base.rx_aperture_radius_m,
        receiver_efficiency=base.receiver_efficiency,
        atmosphere=weather.perturbed_atmosphere(paper_atmosphere(), condition),
        turbulence=True,
        uplink=False,
        cn2_scale=weather.cn2_multiplier(condition),
    )


def hap_site_geometry(
    sites: list | None = None,
) -> dict[str, tuple[float, float]]:
    """``site name -> (elevation_rad, range_km)`` of every HAP link.

    The HAP hovers at a fixed position, so this geometry is constant
    across weather trials; the study computes it once and ships it to
    workers instead of letting every trial redo the ECEF transforms.
    """
    sites = list(all_ground_nodes()) if sites is None else list(sites)
    analysis = AirGroundAnalysis(
        sites,
        paper_hap_fso(),
        hap_lat_deg=QNTN_HAP_LAT_DEG,
        hap_lon_deg=QNTN_HAP_LON_DEG,
        hap_alt_km=QNTN_HAP_ALTITUDE_KM,
    )
    return {s.name: analysis.site_geometry(s.name) for s in sites}


def run_weather_trial(
    n_requests: int = 50,
    *,
    seed: int | np.random.Generator | None = None,
    site_geometry: dict[str, tuple[float, float]] | None = None,
) -> WeatherTrialResult:
    """One Monte Carlo trial: sample weather, evaluate the HAP network.

    Module-level and picklable so it can fan out across a process pool.

    Args:
        site_geometry: optional precomputed HAP-link geometry (see
            :func:`hap_site_geometry`); transmissivities still depend on
            the sampled weather and are evaluated per trial.
    """
    if n_requests <= 0:
        raise ValidationError(f"n_requests must be positive, got {n_requests}")
    rng = as_generator(seed)
    condition = WeatherModel().sample(rng)
    sites = list(all_ground_nodes())
    analysis = AirGroundAnalysis(
        sites,
        _weathered_hap_model(condition),
        hap_lat_deg=QNTN_HAP_LAT_DEG,
        hap_lon_deg=QNTN_HAP_LON_DEG,
        hap_alt_km=QNTN_HAP_ALTITUDE_KM,
        site_geometry=site_geometry,
    )
    from repro.core.requests import generate_requests
    from repro.quantum.fidelity import entanglement_fidelity_from_transmissivity

    requests = generate_requests(sites, n_requests, rng)
    etas = analysis.serve([r.endpoints for r in requests], 0)
    served = [e for e in etas if e is not None]
    fidelity = (
        float(
            np.mean(
                [float(entanglement_fidelity_from_transmissivity(e)) for e in served]
            )
        )
        if served
        else float("nan")
    )
    return WeatherTrialResult(condition, len(served) / n_requests, fidelity)


def weather_study(
    n_trials: int = 100,
    *,
    n_requests: int = 50,
    seed: int | None = 11,
    n_workers: int = 0,
) -> WeatherStudyResult:
    """Run a weather Monte Carlo study of the air-ground architecture.

    Args:
        n_trials: independent sampled-weather days.
        n_requests: requests per trial.
        seed: root seed; per-trial streams are spawned from it.
        n_workers: process count for the trial fan-out (0 = serial).
    """
    if n_trials <= 0:
        raise ValidationError(f"n_trials must be positive, got {n_trials}")
    from repro.parallel.sweep import parallel_sweep

    # The hover geometry is trial-invariant: compute it once here and
    # bind it into the task (2 floats per site) instead of re-deriving
    # it inside all n_trials tasks.
    trial = partial(run_weather_trial, site_geometry=hap_site_geometry())
    results = parallel_sweep(
        trial, [n_requests] * n_trials, seed=seed, n_workers=n_workers
    )
    return WeatherStudyResult(tuple(results))
