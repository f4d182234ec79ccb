"""The serving engine: :class:`SimulatorServeEngine` over a simulator.

One request API — ``submit(request) -> ServeOutcome`` — over
:class:`~repro.network.simulator.NetworkSimulator`, in two kinds:

* ``cached`` (production): the simulator reading the vectorized
  :class:`~repro.engine.linkstate.LinkStateCache`;
* ``direct`` (test oracle): the same simulator evaluating every channel
  per request through the scalar object model.

The engine also exposes the *batch* shape of its path through
:meth:`SimulatorServeEngine.serve_batch`, which is
:meth:`NetworkSimulator.serve_requests` (shared routing trees per
sample), and the differential harness in ``tests/serve/`` asserts that
replaying one timestamped request sequence through ``submit`` and
through ``serve_batch`` yields bit-identical outcomes: the streaming
front end cannot drift from the batch path.

Outcomes are pure functions of ``(source, destination, t_s)`` — an
engine holds no per-request mutable state — which is what makes the
async front end deterministic regardless of task interleaving, and a
sharded replay identical to a serial one.

Time advances through :meth:`SimulatorServeEngine.advance_to`: a
monotonic cursor over the precomputed series (grid bisection from the
last position, never a full-day recompute), mirroring
:meth:`LinkStateCache.advance_index`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable, Sequence

from repro import obs
from repro.errors import ValidationError
from repro.network.simulator import RequestOutcome
from repro.routing.metrics import DEFAULT_EPSILON

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.simulator import NetworkSimulator
    from repro.network.workload import TimedRequest
    from repro.orbits.ephemeris import Ephemeris
    from repro.routing.strategies import StrategyConfig

__all__ = [
    "ENGINE_KINDS",
    "ServeOutcome",
    "SimulatorServeEngine",
    "build_engine",
    "outcomes_equal",
]

#: The recognised ``build_engine`` kinds: production first, then the oracle.
ENGINE_KINDS = ("cached", "direct")

#: A streamed request's outcome: the simulator's one outcome record,
#: stamped with the request's ``request_id`` and ``tenant``.
ServeOutcome = RequestOutcome


#: Every field ``outcomes_equal`` compares exactly.
_EXACT = operator.attrgetter(
    "request_id", "source", "destination", "t_s", "tenant", "served", "path", "cause",
    "n_paths", "purified", "path_eta",
)


def outcomes_equal(a: ServeOutcome, b: ServeOutcome) -> bool:
    """Field-wise equality treating NaN fidelity as equal (denied outcomes)."""
    if _EXACT(a) != _EXACT(b):
        return False
    return a.fidelity == b.fidelity or (math.isnan(a.fidelity) and math.isnan(b.fidelity))


class SimulatorServeEngine:
    """``cached`` / ``direct`` serving engine over a :class:`NetworkSimulator`.

    Streaming requests go through :meth:`NetworkSimulator.serve_request`,
    batches through :meth:`NetworkSimulator.serve_requests`; both reduce
    to the same Bellman–Ford relaxation and fidelity closed form, which
    is why the differential harness can demand bit-identity between
    them.

    Outcomes are the simulator's own records with the request's
    identity stamped on, denial cause included: the simulator decides
    the cause while serving (its ``attribute_denials`` switch).
    ``cached`` reads the cause cascade's gates from the link state's
    stored gate bytes at the request's grid sample; ``direct``
    re-evaluates each candidate uplink through the scalar channel
    model, the oracle the cached answer is tested against.

    Args:
        simulator: the bound simulator; its ``use_cache`` flag decides
            which serving path (and this engine's ``name``).
    """

    def __init__(self, simulator: "NetworkSimulator") -> None:
        self.simulator = simulator
        #: Engine kind: "cached" (production) or "direct" (oracle).
        self.name = "cached" if simulator.use_cache else "direct"
        self._cursor_s: float | None = None
        #: Time whose link and fault state the cursor's requests are
        #: served from: the grid sample at or before the cursor for
        #: ``cached``, the cursor itself for ``direct`` (which applies
        #: faults at the arrival time); ``None`` before the first
        #: :meth:`advance_to`.
        self.sample_s: float | None = None

    def cursor_info(self) -> dict:
        """Engine time-cursor position (grid index and seconds).

        Read-only observability for ``/status`` — mirrors what the
        manifest's ``extra.serve`` records at end of run.
        """
        t_index = (
            int(self.simulator.linkstate._cursor) if self.simulator.use_cache else None
        )
        return {"t_index": t_index, "t_s": self._cursor_s}

    def advance_to(self, t_s: float) -> None:
        """Advance the engine's time cursor to ``t_s`` (monotonic).

        Grid-aligned streams repeat each ``t_s`` many times; a repeat
        returns at once, and the link state's cursor (with its
        ``propagate`` span) moves only when the grid sample changes.
        """
        if t_s == self._cursor_s:
            return
        self._cursor_s = t_s
        if self.simulator.use_cache:
            ls = self.simulator.linkstate
            self.sample_s = ls._times_list[ls.advance_index(t_s)]
        else:
            self.sample_s = t_s

    def submit(self, request: "TimedRequest") -> ServeOutcome:
        """Serve one request at its arrival time.

        The simulator stamps the request's identity on its outcome, so
        this builds one record per request.
        """
        with obs.span("serve"):
            return self.simulator.serve_request(
                request.source,
                request.destination,
                request.t_s,
                request_id=request.request_id,
                tenant=request.tenant,
            )

    def _serve_group(
        self, t_s: float, group: Sequence["TimedRequest"]
    ) -> list[ServeOutcome]:
        """Serve all requests sharing one timestamp through the batch path."""
        with obs.span("serve"):
            raws = self.simulator.serve_requests([r.endpoints for r in group], t_s)
            return [
                replace(raw, request_id=r.request_id, tenant=r.tenant)
                for r, raw in zip(group, raws)
            ]

    def serve_batch(self, requests: Iterable["TimedRequest"]) -> list[ServeOutcome]:
        """Replay a time-ordered stream through the batch path.

        Consecutive requests with equal timestamps form one batch call —
        exactly how the offline sweeps evaluate a request set per sample
        — so this is the reference the differential harness compares
        :meth:`submit` against.
        """
        outcomes: list[ServeOutcome] = []
        group: list[TimedRequest] = []
        for request in requests:
            if group and request.t_s != group[0].t_s:
                outcomes.extend(self._serve_group(group[0].t_s, group))
                group = []
            group.append(request)
        if group:
            outcomes.extend(self._serve_group(group[0].t_s, group))
        return outcomes


def build_engine(
    kind: str,
    ephemeris: "Ephemeris",
    *,
    fso_model=None,
    policy=None,
    faults=None,
    epsilon: float = DEFAULT_EPSILON,
    fidelity_convention: str = "sqrt",
    attribute_denials: bool = True,
    strategy: "StrategyConfig | None" = None,
) -> SimulatorServeEngine:
    """Assemble a :class:`SimulatorServeEngine` of the given ``kind`` over the QNTN LANs.

    Args:
        kind: one of :data:`ENGINE_KINDS` — ``"cached"`` in production,
            ``"direct"`` as the test oracle.
        ephemeris: constellation movement sheet.
        fso_model: ground-satellite channel model (paper preset default).
        policy / epsilon / fidelity_convention: serving knobs, identical
            defaults for both kinds.
        faults: realized :class:`~repro.faults.FaultSchedule`, compiled
            :class:`~repro.faults.plane.FaultPlane`, or ``None``; both
            kinds consume the same compiled plane.
        attribute_denials: decide the canonical cause of every denial
            while serving it (``NetworkSimulator(attribute_denials=)``).
        strategy: optional
            :class:`~repro.routing.strategies.StrategyConfig` mounting
            the multipath router behind the engine (``--router
            k-shortest``). ``None`` / ``router="shortest"`` keeps the
            legacy single-path router.
    """
    from repro.channels.presets import paper_satellite_fso
    from repro.network.simulator import NetworkSimulator
    from repro.network.topology import attach_satellites, build_qntn_ground_network
    from repro.routing.strategies import build_strategy

    if kind not in ENGINE_KINDS:
        raise ValidationError(
            f"unknown engine kind {kind!r}; expected one of {ENGINE_KINDS}"
        )
    model = fso_model or paper_satellite_fso()
    plane = faults.compile() if hasattr(faults, "compile") else faults
    router = build_strategy(
        strategy,
        policy=policy,
        fidelity_convention=fidelity_convention,
        epsilon=epsilon,
    )
    network = build_qntn_ground_network()
    attach_satellites(network, ephemeris, model)
    simulator = NetworkSimulator(
        network,
        policy=policy,
        fidelity_convention=fidelity_convention,
        epsilon=epsilon,
        use_cache=(kind == "cached"),
        faults=plane,
        strategy=router,
        attribute_denials=attribute_denials,
    )
    return SimulatorServeEngine(simulator)
