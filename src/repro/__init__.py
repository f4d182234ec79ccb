"""QNTN: a simulation framework for regional quantum networks.

Reproduction of "QNTN: Establishing a Regional Quantum Network in
Tennessee" (SC 2024): three quantum LANs (Tennessee Tech, ORNL, EPB)
interconnected either by a LEO constellation (space-ground) or by a
high-altitude platform (air-ground), evaluated on coverage period,
served entanglement requests, and entanglement fidelity.

Quickstart::

    from repro import AirGroundArchitecture, SpaceGroundArchitecture

    space = SpaceGroundArchitecture(n_satellites=108)
    result = space.evaluate()
    print(result.coverage_percentage, result.mean_fidelity)

Subpackages:

* :mod:`repro.core` — architectures and paper experiments.
* :mod:`repro.orbits` — orbital mechanics (the STK substitute).
* :mod:`repro.quantum` — states, Kraus channels, fidelity.
* :mod:`repro.channels` — fiber and FSO link budgets.
* :mod:`repro.network` — the QuNetSim-style host/channel simulator.
* :mod:`repro.engine` — vectorized link-budget and link-state caches.
* :mod:`repro.routing` — Bellman–Ford entanglement routing (Algorithm 1).
* :mod:`repro.parallel` — process-pool sweeps.
* :mod:`repro.reporting` — table/figure renderers.
"""

from repro.core.architecture import (
    AirGroundArchitecture,
    ArchitectureResult,
    HybridArchitecture,
    SpaceGroundArchitecture,
)
from repro.core.comparison import ComparisonRow, compare_architectures
from repro.core.coverage import CoverageResult
from repro.core.requests import Request, generate_requests
from repro.core.threshold import ThresholdResult, transmissivity_threshold_experiment
from repro.engine import LinkStateCache
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "SpaceGroundArchitecture",
    "AirGroundArchitecture",
    "HybridArchitecture",
    "ArchitectureResult",
    "compare_architectures",
    "ComparisonRow",
    "CoverageResult",
    "generate_requests",
    "LinkStateCache",
    "Request",
    "transmissivity_threshold_experiment",
    "ThresholdResult",
]
