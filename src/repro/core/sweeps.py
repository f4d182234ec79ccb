"""Fast constellation-size sweeps for Figs. 6-8.

The paper's sweeps evaluate 18 prefix constellations (6, 12, ..., 108
satellites). Because each size is a prefix of the Table II deployment
order, a single link-budget pass over the full 108-satellite ephemeris
suffices for all of them: coverage comes from cumulative ORs over the
satellite axis (:meth:`SpaceGroundAnalysis.cumulative_all_pairs_connected`)
and request service from one running-minimum pass per service step that
answers every size (:meth:`SpaceGroundAnalysis.serve_prefixes`).

Request service runs through :func:`repro.parallel.sweep.run_shards` at
every worker count: this module supplies only the per-block work
(:func:`_serve_steps`), and ``n_workers=0`` runs the same blocks
in-process that a pool would run over shared-memory budget records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.channels.fso import FSOChannelModel
from repro.channels.presets import paper_satellite_fso
from repro.core.analysis import SpaceGroundAnalysis
from repro.core.coverage import CoverageResult, check_sweep_sizes, coverage_from_mask
from repro.core.evaluation import ServiceResult, evaluation_time_indices
from repro.core.requests import Request, generate_requests
from repro.data.ground_nodes import GroundNode, all_ground_nodes
from repro.engine.budgets import LinkBudgetTable
from repro.errors import ValidationError
from repro.network.links import LinkPolicy
from repro.obs import events
from repro.orbits.ephemeris import Ephemeris, generate_movement_sheet
from repro.orbits.walker import qntn_constellation
from repro.parallel.sweep import run_shards
from repro.quantum.fidelity import entanglement_fidelity_from_transmissivity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.store import ArtifactStore
    from repro.faults.schedule import FaultSchedule

__all__ = ["ConstellationSweep", "SweepPoint", "run_constellation_sweep"]

# The sweep's vectorized serve path bypasses NetworkSimulator, so it
# feeds the same instruments the simulator uses (get-or-create resolves
# them to one object). Fidelities are recorded for the full-size
# constellation only, so the histogram mean equals the largest-size row
# of the printed table (the paper's Table III space-ground number).
_SERVED = obs.counter("network.requests.served")
_DENIED = obs.counter("network.requests.denied")
_FIDELITY = obs.histogram("network.fidelity")


def _record_service_block(
    rec: "events.EventRecorder",
    analysis: SpaceGroundAnalysis,
    pairs: list[tuple[str, str]],
    t_indices,
    n_satellites: int,
    convention: str,
) -> None:
    """Record flight records for one block of service steps.

    Trace ids key on the (process-global) service-grid index, so shard
    workers and the serial path sample exactly the same requests; the
    served/relay decision comes from
    :meth:`SpaceGroundAnalysis.request_detail`, which reads the same
    budget matrices :meth:`~SpaceGroundAnalysis.serve` does.
    """
    times = analysis.ephemeris.times_s
    for t_idx in t_indices:
        t_idx = int(t_idx)
        for src, dst in pairs:
            flight = rec.request_scope(f"{src}|{dst}|{t_idx!r}")
            if flight is None:
                continue
            detail = analysis.request_detail(src, dst, t_idx, n_satellites=n_satellites)
            attrs = {
                "source": src,
                "destination": dst,
                "source_lan": detail["source_lan"],
                "destination_lan": detail["destination_lan"],
                "t_s": float(times[t_idx]),
                "t_index": t_idx,
                "served": detail["served"],
            }
            if detail["served"]:
                attrs["path"] = [src, detail["relay"], dst]
                attrs["hop_etas"] = detail["hop_etas"]
                attrs["path_eta"] = detail["path_eta"]
                attrs["fidelity"] = float(
                    entanglement_fidelity_from_transmissivity(
                        detail["path_eta"], convention=convention
                    )
                )
            else:
                attrs["cause"] = detail["cause"].value
                attrs["candidates"] = detail["candidates"]
                attrs["candidate_counts"] = detail["candidate_counts"]
            rec.record_request(flight, attrs)


def _serve_steps(
    table: LinkBudgetTable,
    t_block: list[int],
    *,
    pairs: list[tuple[str, str]],
    sizes: list[int],
    convention: str,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Serve the request batch at one block of service steps.

    Evaluates every constellation size at every step of the block from
    the service budget table (no geometry is recomputed), one
    :meth:`~SpaceGroundAnalysis.serve_prefixes` pass per step, and
    returns its ``(path_eta, served)`` arrays, each ``(n_requests,
    n_sizes)``, in block order; a recorded run also gets the block's
    flight records.
    """
    analysis = SpaceGroundAnalysis(
        table.ephemeris,
        table.sites,
        table.fso_model,
        policy=table.policy,
        platform_altitude_km=table.platform_altitude_km,
        budgets=table,
    )
    results = [analysis.serve_prefixes(pairs, t, sizes) for t in t_block]
    rec = events.active()
    if rec is not None and rec.keeps_records:
        _record_service_block(rec, analysis, pairs, t_block, sizes[-1], convention)
    return results


@dataclass(frozen=True)
class SweepPoint:
    """All paper metrics for one constellation size.

    Attributes:
        n_satellites: constellation-prefix size.
        coverage: Fig. 6 point (Eqs. 6-7).
        service: Figs. 7-8 point (served % and fidelities).
    """

    n_satellites: int
    coverage: CoverageResult
    service: ServiceResult


@dataclass(frozen=True)
class ConstellationSweep:
    """Results of the full 6..108 sweep.

    Attributes:
        points: one :class:`SweepPoint` per requested size, in order.
    """

    points: tuple[SweepPoint, ...]

    @property
    def sizes(self) -> list[int]:
        """Swept constellation sizes."""
        return [p.n_satellites for p in self.points]

    @property
    def coverage_percentages(self) -> list[float]:
        """Fig. 6 series."""
        return [p.coverage.percentage for p in self.points]

    @property
    def served_percentages(self) -> list[float]:
        """Fig. 7 series."""
        return [p.service.served_percentage for p in self.points]

    @property
    def mean_fidelities(self) -> list[float]:
        """Fig. 8 series."""
        return [p.service.mean_fidelity for p in self.points]


def run_constellation_sweep(
    sizes: list[int] | None = None,
    *,
    sites: list[GroundNode] | None = None,
    fso_model: FSOChannelModel | None = None,
    policy: LinkPolicy | None = None,
    duration_s: float = 86400.0,
    step_s: float = 30.0,
    n_requests: int = 100,
    n_time_steps: int = 100,
    seed: int | None = 7,
    fidelity_convention: str = "sqrt",
    ephemeris: Ephemeris | None = None,
    store: "ArtifactStore | None" = None,
    n_workers: int = 0,
    faults: "FaultSchedule | dict | str | None" = None,
    fault_seed: int | None = None,
) -> ConstellationSweep:
    """Run the paper's full constellation sweep (Figs. 6, 7 and 8 at once).

    Args:
        sizes: constellation-prefix sizes; defaults to 6, 12, ..., 108.
        sites: ground nodes (Table I by default).
        fso_model / policy: link model and admission policy.
        duration_s / step_s: coverage horizon and cadence (paper: 1 day
            at 30 s).
        n_requests / n_time_steps / seed: the Figs. 7-8 workload.
        fidelity_convention: "sqrt" (paper numbers) or "squared".
        ephemeris: optional pre-generated full-size movement sheet.
        store: content-addressed :class:`~repro.engine.store.ArtifactStore`
            to load/persist the ephemeris and budget records across
            runs; defaults to the process-wide
            :func:`~repro.engine.store.default_store` (caching off unless
            configured). On a warm run both the propagation and the
            budget geometry pass are skipped entirely.
        n_workers: fan the Figs. 7-8 service evaluation out over this
            many worker processes (0 = serial, in-process; negative
            raises :class:`~repro.errors.ValidationError`). Both counts
            run through :func:`~repro.parallel.sweep.run_shards`: the
            service budget records travel to workers through shared
            memory, and results are reassembled in time order — output
            is identical for any worker count.
        faults: optional :class:`~repro.faults.FaultSchedule` (or a JSON
            file path / dict form of one) perturbing the sweep without
            touching the physics: satellite outages, station downtime,
            weather fades, link flaps. Stochastic processes in the
            schedule are realized with ``fault_seed`` over
            ``duration_s``. An empty schedule is a bit-identical no-op.
        fault_seed: seed for realizing the schedule's stochastic
            :class:`~repro.faults.FailureProcess` generators.

    Returns:
        :class:`ConstellationSweep` with every size's metrics.
    """
    sweep_sizes = sizes if sizes is not None else list(range(6, 109, 6))
    if not sweep_sizes:
        raise ValidationError("sweep needs at least one constellation size")
    check_sweep_sizes(sweep_sizes)
    if n_workers < 0:  # run_shards checks too, but only after propagation
        raise ValidationError(f"n_workers must be >= 0, got {n_workers}")
    if n_requests < 1:  # served fractions divide by the batch size
        raise ValidationError(f"n_requests must be >= 1, got {n_requests}")
    max_size = sweep_sizes[-1]
    site_list = sites if sites is not None else list(all_ground_nodes())
    model = fso_model or paper_satellite_fso()

    plane = None
    if faults is not None:
        from repro.faults.schedule import coerce_schedule

        schedule = coerce_schedule(faults)
        schedule = schedule.realize(seed=fault_seed, horizon_s=duration_s)
        compiled = schedule.compile()
        if not compiled.is_noop:
            plane = compiled

    if store is None:
        from repro.engine.store import default_store

        store = default_store()

    if ephemeris is None:
        with obs.span("propagate"):
            elements = qntn_constellation(max_size)
            if store is not None:
                ephemeris = store.get_or_build_ephemeris(
                    elements, duration_s=duration_s, step_s=step_s
                )
            else:
                ephemeris = generate_movement_sheet(
                    elements, duration_s=duration_s, step_s=step_s
                )
    elif ephemeris.n_platforms < max_size:
        raise ValidationError(
            f"ephemeris holds {ephemeris.n_platforms} platforms, need {max_size}"
        )

    # One full-horizon analysis for coverage (cumulative over sizes).
    # The store caches healthy budgets only; the fault plane perturbs
    # them after the load/compute step inside the table.
    table = LinkBudgetTable(
        ephemeris, site_list, model, policy=policy, store=store, faults=plane
    )
    coverage_analysis = SpaceGroundAnalysis(
        ephemeris, site_list, model, policy=policy, budgets=table, faults=plane
    )
    # Budgets are lazy; forcing them here (they are all needed below
    # anyway) keeps the geometry pass out of the routing span.
    with obs.span("budget"):
        table.compute_all()
    with obs.span("route"):
        cumulative = coverage_analysis.cumulative_all_pairs_connected()

    # One coverage event per ephemeris sample (from the full-size mask —
    # the row the headline coverage number is computed from), so the
    # recorded outage timeline and coverage fraction reproduce
    # core.coverage's values exactly.
    recorder = events.active()
    if recorder is not None and recorder.keeps_records:
        full_mask = cumulative[max_size - 1]
        for i, t in enumerate(ephemeris.times_s):
            recorder.record_coverage(
                t_s=float(t),
                t_index=i,
                connected=bool(full_mask[i]),
                horizon_s=duration_s,
            )

    # One reduced-time budget table for request service: it slices the
    # coverage pass' records, with no second geometry pass.
    indices = evaluation_time_indices(ephemeris.n_samples, n_time_steps)
    service_table = table.at_time_indices(indices)
    requests: list[Request] = generate_requests(site_list, n_requests, seed)
    endpoint_pairs = [r.endpoints for r in requests]

    # One (path_eta, served) pair of (request, size) arrays per service
    # step, served over blocks of steps (in-process at n_workers=0).
    n_steps = service_table.ephemeris.n_samples
    with obs.span("serve"):
        per_step = run_shards(
            partial(
                _serve_steps,
                pairs=endpoint_pairs,
                sizes=sweep_sizes,
                convention=fidelity_convention,
            ),
            service_table,
            range(n_steps),
            n_workers=n_workers,
        )
    # (step, request, size) stacks; a size's column reads its served
    # etas in (step, request) order.
    path_etas = np.stack([eta for eta, _ in per_step])
    served_masks = np.stack([hit for _, hit in per_step])

    points: list[SweepPoint] = []
    for size_idx, n in enumerate(sweep_sizes):
        coverage = coverage_from_mask(
            ephemeris.times_s,
            cumulative[n - 1],
            n_satellites=n,
            horizon_s=duration_s,
        )
        served = served_masks[:, :, size_idx]
        served_per_step = served.sum(axis=1) / len(requests)
        # One array call per size; the array branch is bit-equal to the
        # scalar one.
        fid = entanglement_fidelity_from_transmissivity(
            path_etas[:, :, size_idx][served], convention=fidelity_convention
        )
        fidelities = fid.tolist()
        if n == max_size:
            n_served = int(np.count_nonzero(served))
            _SERVED.inc(n_served)
            _DENIED.inc(served.size - n_served)
            for f in fidelities:
                _FIDELITY.observe(f)
        service = ServiceResult(
            n_requests=len(requests),
            n_time_steps=n_steps,
            served_fraction=float(np.mean(served_per_step)),
            mean_fidelity=float(fid.mean()) if fid.size else float("nan"),
            fidelities=tuple(fidelities),
            served_per_step=tuple(served_per_step.tolist()),
        )
        points.append(SweepPoint(n, coverage, service))
    return ConstellationSweep(tuple(points))
