"""The network simulation driver.

:class:`NetworkSimulator` binds a :class:`~repro.network.topology.QuantumNetwork`
to the admission policy and the routing layer, serving entanglement
requests at given simulation times. Platform motion is deterministic —
querying a link at time ``t`` evaluates the satellites' movement sheets at
``t`` — so results are reproducible (the paper's position-update threads
are replaced by this clocked evaluation; see DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.engine.linkstate import LinkStateCache
from repro.errors import NoPathError, UnknownHostError, ValidationError
from repro.network.events import EventTimeline
from repro.network.links import LinkPolicy
from repro.network.protocols import EntangledPair, distribute_entanglement
from repro.network.topology import LinkGraph, QuantumNetwork
from repro.obs import events
from repro.obs.trace import DenialCause, classify_denial
from repro.orbits.visibility import is_visible
from repro.quantum.fidelity import entanglement_fidelity_from_transmissivity
from repro.routing.bellman_ford import BellmanFordResult, FlatGraph, bellman_ford
from repro.routing.metrics import DEFAULT_EPSILON, path_edges, path_transmissivity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plane import FaultPlane
    from repro.routing.strategies import (
        KShortestStrategy,
        MultipathPlan,
        StrategyConfig,
    )

__all__ = ["RequestOutcome", "NetworkSimulator"]

# Created once at import; each record below is a flag check when
# telemetry is off (the disabled-mode overhead contract, DESIGN.md §9).
_REQUESTS_SERVED = obs.counter("network.requests.served")
_REQUESTS_DENIED = obs.counter("network.requests.denied")
_PATH_HOPS = obs.histogram("network.path.hops", buckets=(1, 2, 3, 4, 5, 6, 8, 12))
_FIDELITY = obs.histogram("network.fidelity")


def _check_time(t_s: float) -> None:
    """Reject a request time that is not a finite number of seconds."""
    if not math.isfinite(t_s):
        raise ValidationError(f"request time must be finite, got {t_s!r}")


@dataclass(frozen=True, slots=True)
class RequestOutcome:
    """Result of one entanglement-distribution request.

    The one outcome record of both serving shapes: a streamed request's
    outcome is this record with the request's identity stamped on it
    (:attr:`request_id`, :attr:`tenant`; ``repro.serve`` calls it
    ``ServeOutcome``), so the streaming path builds one object per
    request.

    Attributes:
        source / destination: endpoint host names.
        t_s: simulation time the request was served at.
        served: whether a usable route existed.
        path: routed node sequence (empty if unserved).
        path_eta: end-to-end transmissivity, the product of per-link
            eta (0 if unserved).
        fidelity: end-to-end entanglement fidelity (NaN if unserved).
        cause: canonical :class:`~repro.obs.trace.DenialCause` value,
            decided where the request is denied: the routing strategy's
            cause when its rescue fails (``route_exhausted`` /
            ``memory_full``), else the gate cascade's
            (:meth:`NetworkSimulator.denial_cause`) when the simulator
            runs with ``attribute_denials=True``. ``None`` when served or
            unattributed.
        n_paths: entangled pairs consumed to deliver the request (1 on
            the single-path router; >= 2 when purified).
        purified: whether the delivery went through the multipath
            purification scheduler.
        pair: the delivered pair's full density-matrix record, when the
            simulator runs with ``track_states=True`` (None otherwise;
            multipath-purified deliveries always report the closed
            form).
        request_id / tenant: identity of the originating
            :class:`~repro.network.workload.TimedRequest` (``None`` when
            the request was served by endpoints alone).

    Carries no wall-clock latency and no engine label: the record is the
    *physics* answer, so streaming-vs-batch and serial-vs-sharded
    comparisons are plain field equality. Slotted: a stream report
    holds one per request.
    """

    source: str
    destination: str
    t_s: float
    served: bool
    path: tuple[str, ...]
    path_eta: float
    fidelity: float
    cause: str | None = None
    n_paths: int = 1
    purified: bool = False
    pair: EntangledPair | None = None
    request_id: int | None = None
    tenant: str | None = None


class NetworkSimulator:
    """Serves entanglement requests over a quantum network.

    Args:
        network: the assembled host/channel topology.
        policy: link admission policy (defaults to the paper's eta >= 0.7
            and elevation >= pi/9).
        fidelity_convention: "sqrt" (default; matches the paper's reported
            numbers) or "squared" (Eq. 5 as written).
        epsilon: routing-metric epsilon.
        track_states: carry full density matrices on outcomes. Exact but
            ~100x slower than the closed form; the fast path uses the
            AD-composition identity instead (tests verify equivalence).
        use_cache: serve requests from a vectorized
            :class:`~repro.engine.linkstate.LinkStateCache` (link budgets
            for all channels precomputed in NumPy passes over the
            ephemeris grid, routing trees memoized per
            feasible-edge set). ``False`` (default) keeps the direct
            per-channel scalar path — the test oracle the cache is
            equivalence-tested against.
        faults: optional compiled :class:`~repro.faults.plane.FaultPlane`
            (or ``None``); both serving paths consume it through the
            same rule, so cached-vs-direct equivalence holds under any
            schedule. A no-op plane is dropped — the fault-free run
            stays bit-identical.
        strategy: optional
            :class:`~repro.routing.strategies.KShortestStrategy`, or a
            bare :class:`~repro.routing.strategies.StrategyConfig`
            (built here against this simulator's policy / convention /
            epsilon). When active (k >= 2), a strict-policy denial is
            retried over the strategy's relaxed link graph: Yen
            k-shortest candidates, memory-slot reservation at
            intermediate platforms, and purification against the
            fidelity floor. Strict-path service is untouched, so
            ``strategy=None`` and ``k = 1`` are bit-identical to the
            legacy router. With the cache on, the relaxed graph is the
            strict link state's row admitted at ``eta_relax``.
        attribute_denials: decide the canonical cause of every denial
            while serving it (:meth:`denial_cause`) and put it on the
            outcome. Off by default: a strict denial the strategy did
            not attribute then carries ``cause=None``.

    Raises:
        ValidationError: for a prebuilt strategy whose policy's
            elevation gate is not ``policy``'s.
    """

    def __init__(
        self,
        network: QuantumNetwork,
        *,
        policy: LinkPolicy | None = None,
        fidelity_convention: str = "sqrt",
        epsilon: float = DEFAULT_EPSILON,
        track_states: bool = False,
        use_cache: bool = False,
        faults: "FaultPlane | None" = None,
        strategy: "KShortestStrategy | StrategyConfig | None" = None,
        attribute_denials: bool = False,
    ) -> None:
        self.network = network
        self.policy = policy or LinkPolicy()
        self.fidelity_convention = fidelity_convention
        self.epsilon = epsilon
        self.track_states = track_states
        self.use_cache = use_cache
        self.faults = faults if faults is not None and not faults.is_noop else None
        if strategy is not None and not hasattr(strategy, "plan"):
            from repro.routing.strategies import build_strategy

            strategy = build_strategy(
                strategy,
                policy=self.policy,
                fidelity_convention=fidelity_convention,
                epsilon=epsilon,
            )
        elif strategy is not None:
            # The cached rescue admits on this simulator's elevation gate
            # and routes on its link state's costs.
            if strategy.policy.min_elevation_rad != self.policy.min_elevation_rad:
                raise ValidationError(
                    "strategy policy's min_elevation_rad differs from the simulator's"
                )
            if strategy.epsilon != epsilon:
                raise ValidationError("strategy epsilon differs from the simulator's")
        self.strategy = strategy
        self.attribute_denials = attribute_denials
        self.timeline = EventTimeline()
        #: the direct path's last graph per admission policy, with its time.
        self._direct_graphs: dict[LinkPolicy, tuple[float, LinkGraph]] = {}
        self._linkstate: LinkStateCache | None = None

    # --- link-state access ------------------------------------------------------

    @property
    def linkstate(self) -> LinkStateCache:
        """The vectorized link-state cache (built lazily on first use)."""
        if self._linkstate is None:
            self._linkstate = LinkStateCache(
                self.network, policy=self.policy, epsilon=self.epsilon,
                faults=self.faults,
            )
        return self._linkstate

    def link_graph(self, t_s: float) -> LinkGraph:
        """Usable-link adjacency at ``t_s`` (memoised per time stamp).

        Raises:
            ValidationError: if ``t_s`` is NaN or infinite.
        """
        _check_time(t_s)
        if self.use_cache:
            return self.linkstate.graph(t_s)
        return self._direct_graph(t_s, self.policy)

    def _direct_graph(self, t_s: float, policy: LinkPolicy) -> LinkGraph:
        """Scalar-path link graph under ``policy`` at ``t_s``, the oracle
        of the cache's rows; the last one per policy is memoised."""
        hit = self._direct_graphs.get(policy)
        if hit is not None and hit[0] == t_s:
            return hit[1]
        graph = self.network.link_graph(t_s, policy, faults=self.faults)
        self._direct_graphs[policy] = (t_s, graph)
        return graph

    def invalidate_cache(self) -> None:
        """Drop all memoised link state (call after mutating the network)."""
        self._direct_graphs.clear()
        self._linkstate = None

    def _routing_tree(self, source: str, t_s: float, k: int | None = None) -> BellmanFordResult:
        """Shortest-path tree at ``t_s`` (grid sample ``k`` when known) —
        memoized when the cache is on."""
        if self.use_cache:
            ls = self.linkstate
            return ls.routing_tree_at_index(ls.time_index(t_s) if k is None else k, source)
        return bellman_ford(self.link_graph(t_s), source, self.epsilon)

    def _graph_at(self, t_s: float, k: int | None, eta_min: float | None = None) -> LinkGraph:
        """Dict graph at ``t_s`` (grid sample ``k`` when cached), admitted
        at the rescue's ``eta_min`` when given. Serving reads it only for
        hop etas (flight records, tracked states), not for cached routes."""
        if self.use_cache:
            return self.linkstate.graph_at_index(k, eta_min)
        return self._direct_graph(
            t_s, self.policy if eta_min is None else self.strategy.relaxed_policy
        )

    # --- multipath rescue --------------------------------------------------------

    def _rescue(
        self, source: str, destination: str, t_s: float, k: int | None
    ) -> "MultipathPlan | None":
        """Run the strategy's multipath rescue after a strict denial.

        Returns the plan, or ``None`` when no strategy is active or the
        relaxed graph holds no candidate path at all (the legacy cause
        cascade then attributes the denial).
        """
        strategy = self.strategy
        if strategy is None or not strategy.active:
            return None
        # The relaxed policy differs from the strict one only in its eta
        # threshold, so the strict link state's row admits at it.
        eta_relax = strategy.config.eta_relax
        epoch = ("edges", self.linkstate.edge_key(k, eta_relax)) if self.use_cache else ("t", t_s)

        def is_platform(name: str) -> bool:
            return self.network.host(name).kind != "ground"

        def enumerate_pair(pair: tuple[str, str]) -> tuple:
            if self.use_cache:
                graph = self.linkstate.flat_graph_at_index(k, eta_relax)
            else:
                graph = FlatGraph(self._graph_at(t_s, k, eta_relax), self.epsilon)
            return strategy.graph_candidates(graph, pair[0], pair[1], is_platform)

        candidates = strategy.candidates((source, destination), epoch, enumerate_pair)
        if not candidates:
            return None
        return strategy.plan(candidates, t_s)

    # --- flight records ----------------------------------------------------------

    def _lan_of(self, name: str) -> str | None:
        """LAN name of a host, or None for platforms."""
        return getattr(self.network.host(name), "network", "") or None

    def _attribute_denial(
        self, source: str, destination: str, t_s: float, max_candidates: int
    ) -> tuple[DenialCause, list[dict], dict[str, int]]:
        """Cause cascade over the candidate uplink platforms at ``t_s``.

        Judges every platform with channels to both endpoints — visible,
        elevation, healthy and usable at both ends — and folds the
        verdicts into exactly one canonical
        :class:`~repro.obs.trace.DenialCause`; the first
        ``max_candidates`` visible platforms become the flight record's
        candidate detail, their eta and elevation from scalar channel
        evaluations. With the cache on and two ground endpoints the
        verdicts are the link state's gate bytes at the request's grid
        sample (:meth:`~repro.engine.linkstate.LinkStateCache.platform_verdicts`);
        otherwise every channel is evaluated, the scalar cascade the
        ``direct`` engine decides causes with and the cached verdicts
        are tested against.
        """
        found = None
        if self.use_cache:
            ls = self.linkstate
            found = ls.platform_verdicts(source, destination, ls.advance_index(t_s))
        platforms, verdicts = found or self._scalar_verdicts(source, destination, t_s)
        visible, elev_ok, healthy, usable = verdicts.sum(axis=0, dtype=int).tolist()
        candidates: list[dict] = []
        for i in np.flatnonzero(verdicts[:, 0])[:max_candidates].tolist():
            _, elev, healthy_i, usable_i = verdicts[i].tolist()
            st_s = self.network.channel_between(source, platforms[i]).evaluate(t_s, self.policy)
            st_d = self.network.channel_between(destination, platforms[i]).evaluate(
                t_s, self.policy
            )
            entry = {
                "platform": platforms[i],
                "eta_src": st_s.transmissivity,
                "eta_dst": st_d.transmissivity,
                "elevation_src_rad": st_s.elevation_rad,
                "elevation_dst_rad": st_d.elevation_rad,
                "visible": True,
                "elevation_ok": elev,
                "usable": usable_i,
            }
            if self.faults is not None:
                entry["faulted"] = healthy_i and not usable_i
            candidates.append(entry)
        cause = classify_denial(
            visible > 0,
            elev_ok > 0,
            healthy > 0,
            fault_blocked=healthy > 0 and usable == 0,
        )
        counts = {
            "platforms": len(platforms),
            "visible": visible,
            "elevation_ok": elev_ok,
            "usable": usable,
        }
        if self.faults is not None:
            counts["healthy_usable"] = healthy
        return cause, candidates, counts

    def _scalar_verdicts(
        self, source: str, destination: str, t_s: float
    ) -> tuple[list[str], np.ndarray]:
        """Platforms with channels to both endpoints, in host order, and
        their ``(visible, elevation_ok, healthy, usable)`` verdicts, one
        bool row each, from scalar channel evaluations at ``t_s``."""
        min_el = self.policy.min_elevation_rad
        faults = self.faults
        platforms: list[str] = []
        verdicts: list[tuple[bool, bool, bool, bool]] = []
        for platform in self.network.hosts():
            if platform.kind == "ground":
                continue
            ch_s = self.network.channel_between(source, platform.name)
            ch_d = self.network.channel_between(destination, platform.name)
            if ch_s is None or ch_d is None:
                continue
            st_s = ch_s.evaluate(t_s, self.policy)
            st_d = ch_d.evaluate(t_s, self.policy)
            visible = is_visible(st_s.elevation_rad) and is_visible(st_d.elevation_rad)
            elev_ok = (
                visible and st_s.elevation_rad >= min_el and st_d.elevation_rad >= min_el
            )
            healthy = st_s.usable and st_d.usable
            if faults is None:
                usable = healthy
            else:
                _, ok_s = faults.apply_channel(ch_s, st_s, t_s, self.policy)
                _, ok_d = faults.apply_channel(ch_d, st_d, t_s, self.policy)
                usable = ok_s and ok_d
            platforms.append(platform.name)
            verdicts.append((bool(visible), bool(elev_ok), bool(healthy), bool(usable)))
        return platforms, np.array(verdicts, dtype=bool).reshape(-1, 4)

    def _record_flight(
        self,
        flight: str,
        graph: LinkGraph | None,
        source: str,
        destination: str,
        t_s: float,
        *,
        path: tuple[str, ...] | list[str] = (),
        eta_path: float = 0.0,
        fidelity: float | None = None,
        cause: str | None = None,
    ) -> None:
        """Record one request's flight detail into trace ``flight``; empty
        path = denied. ``graph`` is the path's, read for its hop etas.

        ``cause`` is the outcome's cause when serving decided one (the
        strategy's rescue, or attribution on); otherwise the scalar
        cascade names it. The cascade always supplies the candidate
        detail.
        """
        attrs: dict = {
            "source": source,
            "destination": destination,
            "source_lan": self._lan_of(source),
            "destination_lan": self._lan_of(destination),
            "t_s": t_s,
            "served": bool(path),
        }
        if path:
            attrs["path"] = list(path)
            attrs["hop_etas"] = path_edges(graph, list(path))
            attrs["path_eta"] = eta_path
            attrs["fidelity"] = fidelity
        else:
            cascade_cause, candidates, counts = self._attribute_denial(
                source, destination, t_s, events.MAX_CANDIDATES
            )
            attrs["cause"] = cause or cascade_cause.value
            attrs["candidates"] = candidates
            attrs["candidate_counts"] = counts
        events._ACTIVE.record_request(flight, attrs)

    def denial_cause(self, source: str, destination: str, t_s: float) -> DenialCause:
        """Canonical cause for an unserved ``source -> destination`` at ``t_s``.

        Serving calls this for every denial when ``attribute_denials``
        is on, so a streaming engine and a traced batch sweep attribute
        the identical denial to the identical cause. With the cache on,
        the gates are read from the link state's stored gate bytes at
        the request's grid sample
        (:meth:`~repro.engine.linkstate.LinkStateCache.denial_gates`);
        the direct path runs the scalar cascade, the oracle the cached
        answer is tested against. Only meaningful for requests that
        actually went unserved — the cascade presumes no usable
        end-to-end route exists.

        Raises:
            ValidationError: if ``t_s`` is NaN or infinite.
            UnknownHostError: if an endpoint is not in the network.
        """
        _check_time(t_s)
        self._check_endpoints(source, destination)
        if self.use_cache:
            ls = self.linkstate
            gates = ls.denial_gates(source, destination, ls.advance_index(t_s))
            if gates is not None:
                visible, elevated, healthy, usable = gates
                return classify_denial(
                    visible, elevated, healthy, fault_blocked=healthy and not usable
                )
        cause, _, _ = self._attribute_denial(source, destination, t_s, 0)
        return cause

    # --- request service -----------------------------------------------------------

    def _check_endpoints(self, source: str, destination: str) -> None:
        """Reject an endpoint that is not in the network."""
        if source not in self.network:
            raise UnknownHostError(source)
        if destination not in self.network:
            raise UnknownHostError(destination)

    def _delivered(
        self,
        source: str,
        destination: str,
        t_s: float,
        k: int | None,
        tree: BellmanFordResult,
        path: list[str],
        flight: str | None,
        request_id: int | None = None,
        tenant: str | None = None,
    ) -> RequestOutcome:
        """Outcome of a request routed over ``path`` in ``tree``: its eta
        (the tree's when cached; the direct oracle multiplies the dict
        graph's hop etas), fidelity, serve counters and flight record."""
        if self.use_cache:
            eta_path = tree.eta_to(destination)
        else:
            eta_path = path_transmissivity(path_edges(self.link_graph(t_s), path))
        pair = None
        if self.track_states:
            pair = distribute_entanglement(
                path_edges(self._graph_at(t_s, k), path),
                source=source, destination=destination,
            )
            fidelity = pair.fidelity(self.fidelity_convention)
        else:
            fidelity = float(
                entanglement_fidelity_from_transmissivity(
                    eta_path, convention=self.fidelity_convention
                )
            )
        _REQUESTS_SERVED.inc()
        _PATH_HOPS.observe(len(path) - 1)
        _FIDELITY.observe(fidelity)
        if flight is not None:
            self._record_flight(
                flight, self._graph_at(t_s, k), source, destination, t_s,
                path=path, eta_path=eta_path, fidelity=fidelity,
            )
        return RequestOutcome(
            source, destination, t_s, True, tuple(path), eta_path, fidelity,
            None, 1, False, pair, request_id, tenant,
        )

    def _denied_outcome(
        self,
        source: str,
        destination: str,
        t_s: float,
        k: int | None,
        flight: str | None,
        request_id: int | None = None,
        tenant: str | None = None,
    ) -> RequestOutcome:
        """Resolve a strict-path denial: multipath rescue, else denial.

        The shared tail of both serving shapes — streaming and batch
        reduce to the same rescue decision and the same cause, which is
        what keeps them bit-identical under any strategy configuration.
        The cause is the failed rescue's, else the gate cascade's when
        attribution is on. ``k`` is the request's grid sample when
        cached.
        """
        plan = self._rescue(source, destination, t_s, k)
        if plan is not None and plan.served:
            _REQUESTS_SERVED.inc()
            _PATH_HOPS.observe(len(plan.path) - 1)
            _FIDELITY.observe(plan.fidelity)
            if flight is not None:
                self._record_flight(
                    flight, self._graph_at(t_s, k, self.strategy.config.eta_relax),
                    source, destination, t_s,
                    path=plan.path, eta_path=plan.eta, fidelity=plan.fidelity,
                )
            return RequestOutcome(
                source, destination, t_s, True, plan.path, plan.eta, plan.fidelity,
                None, plan.n_paths, True, None, request_id, tenant,
            )
        cause = plan.cause if plan is not None else None
        if cause is None and self.attribute_denials:
            cause = self.denial_cause(source, destination, t_s).value
        _REQUESTS_DENIED.inc()
        if flight is not None:
            self._record_flight(flight, None, source, destination, t_s, cause=cause)
        return RequestOutcome(
            source, destination, t_s, False, (), 0.0, float("nan"), cause,
            1, False, None, request_id, tenant,
        )

    def serve_request(
        self,
        source: str,
        destination: str,
        t_s: float,
        *,
        request_id: int | None = None,
        tenant: str | None = None,
    ) -> RequestOutcome:
        """Route and deliver one entanglement request at time ``t_s``.

        The route is the Bellman–Ford minimum of ``sum 1/(eta + eps)``;
        the delivered fidelity comes from amplitude damping with the
        path's end-to-end transmissivity. ``request_id`` and ``tenant``
        are stamped on the outcome as they are (the streaming engine
        passes the request's identity). With the cache on, the route
        and its eta come from the memoized routing tree alone.

        Raises:
            ValidationError: if ``t_s`` is NaN or infinite.
            UnknownHostError: if an endpoint is not in the network.
        """
        _check_time(t_s)
        self._check_endpoints(source, destination)
        # Resolve the grid index once, through the streaming cursor (a
        # no-op check when the engine has already advanced it), and hit
        # the memos by index.
        k = self.linkstate.advance_index(t_s) if self.use_cache else None
        rec = events._ACTIVE
        flight = (
            None
            if rec is None or not rec.keeps_records
            else rec.request_scope(f"{source}|{destination}|{t_s!r}")
        )
        tree = self._routing_tree(source, t_s, k)
        try:
            path = tree.path_to(destination)
        except NoPathError:
            return self._denied_outcome(
                source, destination, t_s, k, flight, request_id, tenant
            )
        return self._delivered(
            source, destination, t_s, k, tree, path, flight, request_id, tenant
        )

    def serve_requests(
        self, requests: list[tuple[str, str]], t_s: float
    ) -> list[RequestOutcome]:
        """Serve a batch of (source, destination) requests at one time.

        Routing trees are shared across requests with the same source, so
        batches are cheaper than repeated :meth:`serve_request` calls.
        """
        _check_time(t_s)
        k = self.linkstate.time_index(t_s) if self.use_cache else None
        trees: dict[str, BellmanFordResult] = {}
        outcomes: list[RequestOutcome] = []
        rec = events._ACTIVE
        if rec is not None and not rec.keeps_records:
            rec = None
        for source, destination in requests:
            self._check_endpoints(source, destination)
            flight = (
                None
                if rec is None
                else rec.request_scope(f"{source}|{destination}|{t_s!r}")
            )
            if source not in trees:
                trees[source] = self._routing_tree(source, t_s, k)
            tree = trees[source]
            try:
                path = tree.path_to(destination)
            except NoPathError:
                outcomes.append(
                    self._denied_outcome(source, destination, t_s, k, flight)
                )
                continue
            outcomes.append(
                self._delivered(source, destination, t_s, k, tree, path, flight)
            )
        return outcomes

    # --- connectivity queries ----------------------------------------------------

    def lans_connected(self, lan_a: str, lan_b: str, t_s: float) -> bool:
        """Whether some node pair across two LANs has a usable route.

        Raises:
            ValidationError: if ``t_s`` is NaN or infinite.
        """
        _check_time(t_s)
        members = self.network.local_networks
        sources = members.get(lan_a, [])
        targets = set(members.get(lan_b, []))
        if not sources or not targets:
            return False
        tree = self._routing_tree(sources[0], t_s)
        # All LAN members are fiber-meshed, so reachability from one
        # member implies reachability from all (fiber links always pass
        # the threshold at intra-LAN distances).
        return any(tree.reachable(t) for t in targets)

    def all_lans_connected(self, t_s: float) -> bool:
        """Paper coverage condition: every LAN pair connected at ``t_s``.

        Raises:
            ValidationError: if ``t_s`` is NaN or infinite.
        """
        _check_time(t_s)
        lans = list(self.network.local_networks)
        for i, a in enumerate(lans):
            for b in lans[i + 1 :]:
                if not self.lans_connected(a, b, t_s):
                    return False
        return True
