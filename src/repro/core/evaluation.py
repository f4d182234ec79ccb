"""Served-request and fidelity evaluation (paper Figs. 7-8, Section IV-C).

The paper's protocol: generate 100 random inter-LAN requests, serve them
at each of 100 satellite-movement time steps, and report the average
served percentage and the average fidelity over resolved requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.analysis import AirGroundAnalysis, SpaceGroundAnalysis
from repro.core.requests import Request
from repro.errors import ValidationError
from repro.network.satellite import Satellite
from repro.network.simulator import NetworkSimulator
from repro.quantum.fidelity import entanglement_fidelity_from_transmissivity

__all__ = ["ServiceResult", "evaluate_requests", "evaluation_time_indices"]


@dataclass(frozen=True)
class ServiceResult:
    """Aggregate outcome of a request-service experiment.

    Attributes:
        n_requests: requests per time step.
        n_time_steps: number of evaluated sample times.
        served_fraction: mean fraction of requests served per step.
        mean_fidelity: mean fidelity over all resolved requests (NaN if
            nothing was served).
        fidelities: fidelity of every resolved request, flattened.
        served_per_step: served fraction at each time step.
        queue_drops: requests rejected by the finite-queue extension
            (always 0 under the paper's infinite-queue assumption).
    """

    n_requests: int
    n_time_steps: int
    served_fraction: float
    mean_fidelity: float
    fidelities: tuple[float, ...]
    served_per_step: tuple[float, ...]
    queue_drops: int = 0

    @property
    def served_percentage(self) -> float:
        """Served requests [%], the quantity in Fig. 7."""
        return 100.0 * self.served_fraction

    def _key(self) -> tuple:
        # NaN (nothing served) compares equal to NaN, so two results that
        # served nothing are equal; every other field compares as usual.
        fidelity = None if math.isnan(self.mean_fidelity) else self.mean_fidelity
        return (
            self.n_requests,
            self.n_time_steps,
            self.served_fraction,
            fidelity,
            self.fidelities,
            self.served_per_step,
            self.queue_drops,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServiceResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def evaluation_time_indices(n_samples: int, n_time_steps: int) -> np.ndarray:
    """Evenly spaced sample indices used as evaluation steps.

    The paper repeats its experiment "over 100 time steps of satellite
    movement"; we spread those steps uniformly over the analysis horizon
    so the averages are not biased toward any orbital phase.

    The returned indices are always strictly increasing — duplicates are
    impossible by construction. When ``n_time_steps >= n_samples`` the
    result is ``arange(n_samples)``. Otherwise the linspace stride is
    ``(n_samples - 1) / (n_time_steps - 1) > 1``, so consecutive values
    differ by more than one and their integer floors must each advance
    by at least one. Downstream consumers (budget-table shards, the
    shared-memory sweep partitions) may therefore treat each evaluation
    step as a distinct sample without deduplicating.
    """
    if n_time_steps <= 0:
        raise ValidationError(f"n_time_steps must be positive, got {n_time_steps}")
    if n_samples <= 0:
        raise ValidationError(f"n_samples must be positive, got {n_samples}")
    if n_time_steps >= n_samples:
        return np.arange(n_samples)
    return np.linspace(0, n_samples - 1, n_time_steps).astype(int)


def _simulator_times(simulator: NetworkSimulator) -> np.ndarray:
    """The sample-time grid a simulator's network moves on."""
    for host in simulator.network.hosts():
        if isinstance(host, Satellite):
            return host.ephemeris.times_s
    return np.array([0.0])


def evaluate_requests(
    analysis: SpaceGroundAnalysis | AirGroundAnalysis | NetworkSimulator,
    requests: Sequence[Request],
    *,
    n_time_steps: int = 100,
    fidelity_convention: str = "sqrt",
    queue_capacity: int | None = None,
) -> ServiceResult:
    """Serve a request batch across time steps and aggregate (Figs. 7-8).

    Args:
        analysis: vectorized architecture analysis (space- or air-ground),
            or an object-level :class:`NetworkSimulator` — the latter
            serves via full Bellman–Ford routing and is what the
            cache-equivalence suite drives in both cached and direct
            modes.
        requests: the inter-LAN workload.
        n_time_steps: number of evaluation steps spread over the horizon.
        fidelity_convention: "sqrt" (paper numbers) or "squared" (Eq. 5).
        queue_capacity: optional per-step cap on served requests,
            relaxing the paper's infinite-queue assumption; excess
            requests at a step count as dropped, not served.
    """
    if not requests:
        raise ValidationError("evaluate_requests needs at least one request")
    endpoint_pairs = [r.endpoints for r in requests]
    if isinstance(analysis, NetworkSimulator):
        return _evaluate_requests_simulator(
            analysis,
            endpoint_pairs,
            n_requests=len(requests),
            n_time_steps=n_time_steps,
            fidelity_convention=fidelity_convention,
            queue_capacity=queue_capacity,
        )
    n_samples = (
        analysis.n_times if isinstance(analysis, SpaceGroundAnalysis) else analysis.times_s.size
    )
    indices = evaluation_time_indices(n_samples, n_time_steps)

    fidelities: list[float] = []
    served_per_step: list[float] = []
    drops = 0
    for idx in indices:
        etas = analysis.serve(endpoint_pairs, int(idx))
        served = [e for e in etas if e is not None]
        if queue_capacity is not None and len(served) > queue_capacity:
            drops += len(served) - queue_capacity
            served = served[:queue_capacity]
        served_per_step.append(len(served) / len(requests))
        if served:
            fidelities.extend(
                float(entanglement_fidelity_from_transmissivity(e, convention=fidelity_convention))
                for e in served
            )
    mean_fid = float(np.mean(fidelities)) if fidelities else float("nan")
    return ServiceResult(
        n_requests=len(requests),
        n_time_steps=len(indices),
        served_fraction=float(np.mean(served_per_step)),
        mean_fidelity=mean_fid,
        fidelities=tuple(fidelities),
        served_per_step=tuple(served_per_step),
        queue_drops=drops,
    )


def _evaluate_requests_simulator(
    simulator: NetworkSimulator,
    endpoint_pairs: list[tuple[str, str]],
    *,
    n_requests: int,
    n_time_steps: int,
    fidelity_convention: str,
    queue_capacity: int | None,
) -> ServiceResult:
    """Figs. 7-8 protocol over the object-level simulator.

    Evaluation steps are spread over the network's ephemeris grid; each
    step serves the full batch through Bellman–Ford routing (cached or
    direct, as the simulator is configured).
    """
    if fidelity_convention != simulator.fidelity_convention:
        simulator = NetworkSimulator(
            simulator.network,
            policy=simulator.policy,
            fidelity_convention=fidelity_convention,
            epsilon=simulator.epsilon,
            use_cache=simulator.use_cache,
        )
    times = _simulator_times(simulator)
    indices = evaluation_time_indices(times.size, n_time_steps)

    fidelities: list[float] = []
    served_per_step: list[float] = []
    drops = 0
    for idx in indices:
        outcomes = simulator.serve_requests(endpoint_pairs, float(times[idx]))
        served = [o for o in outcomes if o.served]
        if queue_capacity is not None and len(served) > queue_capacity:
            drops += len(served) - queue_capacity
            served = served[:queue_capacity]
        served_per_step.append(len(served) / n_requests)
        fidelities.extend(o.fidelity for o in served)
    return ServiceResult(
        n_requests=n_requests,
        n_time_steps=len(indices),
        served_fraction=float(np.mean(served_per_step)),
        mean_fidelity=float(np.mean(fidelities)) if fidelities else float("nan"),
        fidelities=tuple(fidelities),
        served_per_step=tuple(served_per_step),
        queue_drops=drops,
    )
