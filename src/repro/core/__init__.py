"""The paper's contribution: QNTN architecture construction and evaluation.

High-level entry points:

* :class:`~repro.core.architecture.SpaceGroundArchitecture` /
  :class:`~repro.core.architecture.AirGroundArchitecture` /
  :class:`~repro.core.architecture.HybridArchitecture` — build and
  evaluate the paper's two interconnection approaches (plus the hybrid
  future-work extension).
* :func:`~repro.core.threshold.transmissivity_threshold_experiment` —
  Fig. 5.
* :func:`~repro.core.comparison.compare_architectures` — Table III.
"""

from repro.core.analysis import AirGroundAnalysis, SpaceGroundAnalysis
from repro.core.design import DesignPoint, DesignSweepResult, design_coverage, design_sweep
from repro.core.handover import HandoverStatistics, handover_statistics, relay_assignment
from repro.core.montecarlo import WeatherStudyResult, run_weather_trial, weather_study
from repro.core.placement import HapFleet, min_site_transmissivity, optimize_hap_position
from repro.core.report import ReproductionReport, full_reproduction_report
from repro.core.waiting import WaitingTimeResult, sample_waiting_times, waiting_time_analysis
from repro.core.passes import PassStatistics, coverage_gaps, pass_statistics, site_pass_statistics
from repro.core.timing import EntanglementRateModel, PathTiming, link_latency_s, path_timing
from repro.core.architecture import (
    AirGroundArchitecture,
    ArchitectureResult,
    HybridArchitecture,
    SpaceGroundArchitecture,
)
from repro.core.comparison import ComparisonRow, compare_architectures
from repro.core.coverage import CoverageResult
from repro.core.evaluation import ServiceResult, evaluate_requests
from repro.core.requests import Request, generate_requests
from repro.core.sweeps import ConstellationSweep, SweepPoint, run_constellation_sweep
from repro.core.threshold import ThresholdResult, transmissivity_threshold_experiment

__all__ = [
    "SpaceGroundAnalysis",
    "AirGroundAnalysis",
    "SpaceGroundArchitecture",
    "AirGroundArchitecture",
    "HybridArchitecture",
    "ArchitectureResult",
    "CoverageResult",
    "Request",
    "generate_requests",
    "ServiceResult",
    "evaluate_requests",
    "ThresholdResult",
    "transmissivity_threshold_experiment",
    "ComparisonRow",
    "compare_architectures",
    "ConstellationSweep",
    "SweepPoint",
    "run_constellation_sweep",
    "EntanglementRateModel",
    "PathTiming",
    "link_latency_s",
    "path_timing",
    "PassStatistics",
    "pass_statistics",
    "site_pass_statistics",
    "coverage_gaps",
    "weather_study",
    "run_weather_trial",
    "WeatherStudyResult",
    "design_coverage",
    "design_sweep",
    "DesignPoint",
    "DesignSweepResult",
    "handover_statistics",
    "relay_assignment",
    "HandoverStatistics",
    "optimize_hap_position",
    "min_site_transmissivity",
    "HapFleet",
    "waiting_time_analysis",
    "sample_waiting_times",
    "WaitingTimeResult",
    "full_reproduction_report",
    "ReproductionReport",
]
