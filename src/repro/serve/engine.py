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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro import obs
from repro.errors import ValidationError
from repro.obs import live
from repro.routing.metrics import DEFAULT_EPSILON

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.simulator import NetworkSimulator, RequestOutcome
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

# Live engine-level instruments: request rate through the engine (both
# the streaming and the batch shape) and the ephemeris cursor position —
# what the /readyz "cursor advancing" check and `repro top` watch.
_LIVE_ENGINE_SUBMITS = live.windowed_counter("serve.live.engine.submits")
_LIVE_ENGINE_CURSOR = live.windowed_gauge("serve.live.engine.cursor_s")


@dataclass(frozen=True)
class ServeOutcome:
    """Result of one streamed entanglement request.

    Attributes:
        request_id: identity of the originating
            :class:`~repro.network.workload.TimedRequest`.
        source / destination: endpoint host names.
        t_s: arrival (= service) time.
        tenant: admission-queue label the request travelled under.
        served: whether a usable route existed.
        path: routed node sequence (empty if unserved).
        path_eta: end-to-end transmissivity (0 if unserved).
        fidelity: delivered entanglement fidelity (NaN if unserved).
        cause: canonical :class:`~repro.obs.trace.DenialCause` value
            when unserved (``None`` when served, or when the engine ran
            with denial attribution off). Strategy-attributed causes
            (``route_exhausted`` / ``memory_full``) are decided during
            serving and survive even with attribution off.
        n_paths: entangled pairs consumed (1 on the single-path router,
            >= 2 for a purified multipath delivery).
        purified: whether the delivery went through the multipath
            purification scheduler.

    Deliberately carries no wall-clock latency and no engine label:
    the record is the *physics* answer, so streaming-vs-batch and
    serial-vs-sharded comparisons are plain field equality. Latency is
    a property of the front end and lives in its metrics.
    """

    request_id: int
    source: str
    destination: str
    t_s: float
    tenant: str
    served: bool
    path: tuple[str, ...]
    path_eta: float
    fidelity: float
    cause: str | None
    n_paths: int = 1
    purified: bool = False


def outcomes_equal(a: ServeOutcome, b: ServeOutcome) -> bool:
    """Field-wise equality treating NaN fidelity as equal (denied outcomes)."""
    if (
        a.request_id,
        a.source,
        a.destination,
        a.t_s,
        a.tenant,
        a.served,
        a.path,
        a.cause,
        a.n_paths,
        a.purified,
    ) != (
        b.request_id,
        b.source,
        b.destination,
        b.t_s,
        b.tenant,
        b.served,
        b.path,
        b.cause,
        b.n_paths,
        b.purified,
    ):
        return False
    if a.path_eta != b.path_eta:
        return False
    if math.isnan(a.fidelity) and math.isnan(b.fidelity):
        return True
    return a.fidelity == b.fidelity


class SimulatorServeEngine:
    """``cached`` / ``direct`` serving engine over a :class:`NetworkSimulator`.

    Streaming requests go through :meth:`NetworkSimulator.serve_request`,
    batches through :meth:`NetworkSimulator.serve_requests`; both reduce
    to the same Bellman–Ford relaxation and fidelity closed form, which
    is why the differential harness can demand bit-identity between
    them.

    Args:
        simulator: the bound simulator; its ``use_cache`` flag decides
            which serving path (and this engine's ``name``).
        attribute_denials: compute the canonical denial cause for every
            unserved request (the flight-recorder cascade re-evaluates
            each candidate uplink, ~2 scalar channel evaluations per
            platform — exact but far off the hot path). Disable for
            throughput runs; denied outcomes then carry ``cause=None``.
    """

    def __init__(
        self, simulator: "NetworkSimulator", *, attribute_denials: bool = True
    ) -> None:
        self.simulator = simulator
        self.attribute_denials = attribute_denials
        #: Engine kind: "cached" (production) or "direct" (oracle).
        self.name = "cached" if simulator.use_cache else "direct"
        self._cursor_s: float | None = None

    @property
    def window(self) -> int | None:
        """Incremental-advance chunk size in ephemeris samples.

        ``None`` means the link-state series was precomputed over the
        whole horizon eagerly (or, for ``direct``, that channels are
        evaluated per request). Surfaced on ``/status`` and in the
        manifest's ``extra.serve`` so an operator can see which mode is
        live.
        """
        if self.simulator.use_cache:
            return self.simulator.linkstate.window
        return None

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
        """Advance the engine's time cursor to ``t_s`` (monotonic)."""
        if t_s != self._cursor_s:
            # Grid-aligned streams call this with a repeated t_s many
            # times per sample; the gauge only needs actual movement.
            self._cursor_s = t_s
            _LIVE_ENGINE_CURSOR.set(t_s)
        if self.simulator.use_cache:
            with obs.span("propagate"):
                self.simulator.linkstate.advance_index(t_s)

    def _outcome(self, request: "TimedRequest", raw: "RequestOutcome") -> ServeOutcome:
        # A strategy-attributed cause was decided during serving (the
        # rescue already knows why it failed); only legacy denials pay
        # the post-hoc gate cascade, and only when attribution is on.
        cause = raw.cause
        if cause is None and not raw.served and self.attribute_denials:
            cause = self.simulator.denial_cause(
                request.source, request.destination, request.t_s
            ).value
        return ServeOutcome(
            request_id=request.request_id,
            source=request.source,
            destination=request.destination,
            t_s=request.t_s,
            tenant=request.tenant,
            served=raw.served,
            path=raw.path,
            path_eta=raw.path_transmissivity,
            fidelity=raw.fidelity,
            cause=cause,
            n_paths=raw.n_paths,
            purified=raw.purified,
        )

    def submit(self, request: "TimedRequest") -> ServeOutcome:
        """Serve one request at its arrival time."""
        _LIVE_ENGINE_SUBMITS.inc()
        with obs.span("serve"):
            raw = self.simulator.serve_request(
                request.source, request.destination, request.t_s
            )
            return self._outcome(request, raw)

    def _serve_group(
        self, t_s: float, group: Sequence["TimedRequest"]
    ) -> list[ServeOutcome]:
        """Serve all requests sharing one timestamp through the batch path."""
        _LIVE_ENGINE_SUBMITS.inc(len(group))
        with obs.span("serve"):
            raws = self.simulator.serve_requests([r.endpoints for r in group], t_s)
            return [self._outcome(r, raw) for r, raw in zip(group, raws)]

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
    window: int | None = None,
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
        attribute_denials: compute canonical denial causes for unserved
            requests (see :class:`SimulatorServeEngine`).
        window: incremental-advance chunk size in ephemeris samples.
            ``None`` keeps the eager full-horizon precompute. When set,
            the ``cached`` link-state series extends lazily as the time
            cursor advances (identical results, lower time-to-first-
            request); ``direct`` evaluates per request and ignores it.
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
        linkstate_window=window if kind == "cached" else None,
        strategy=router,
    )
    return SimulatorServeEngine(simulator, attribute_denials=attribute_denials)
