"""Pluggable routing strategies: k-shortest multipath with purification.

The paper's router serves a request over the single Bellman–Ford
shortest path and denies everything else. This module adds the
``k-shortest`` strategy behind the serving engine (``cached`` and its
``direct`` oracle): when the strict single-path service denies a
request, the strategy enumerates the best ``k`` simple paths on a
*relaxed* link graph (same elevation gate, lower per-link
transmissivity threshold), reserves entanglement-memory slots at each
path's intermediate platforms, and distills the resulting pairs
(BBPSSW/DEJMPS recurrence on Werner-twirled inputs) until the
end-to-end fidelity clears the baseline's own floor — the fidelity the
strict policy would deliver on a worst-case admitted two-hop path.

Equivalence guarantees (pinned by ``tests/routing/``):

* ``k = 1`` is the identity: the strategy never intervenes, so every
  engine's outcomes are bit-identical to the legacy router.
* ``k >= 2`` is monotone: strict-path service is untouched (memory
  bounds budget only the *extra* pairs multipath holds concurrently),
  so the served set is a superset of the baseline's.

Outcomes stay pure functions of ``(source, destination, t_s)``: the
memory pool is scoped to one request's purification attempt, so
streaming == batch and serial == sharded replays hold under any worker
count (DESIGN.md §16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

from repro import obs
from repro.errors import ValidationError
from repro.network.links import LinkPolicy
from repro.obs.trace import DenialCause
from repro.quantum.fidelity import entanglement_fidelity_from_transmissivity
from repro.routing.memory import MemoryPool
from repro.routing.metrics import DEFAULT_EPSILON, path_edges, path_transmissivity
from repro.routing.yen import yen_paths

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.topology import LinkGraph

__all__ = [
    "ROUTERS",
    "CandidatePath",
    "KShortestStrategy",
    "MultipathPlan",
    "PathTable",
    "StrategyConfig",
    "build_strategy",
    "distill_step",
    "projection_fidelity",
]

#: Recognised ``--router`` values, CLI choice order.
ROUTERS = ("shortest", "k-shortest")

# Per-strategy instruments (import-time creation, flag-check when
# disabled — the same overhead contract as the simulator's counters).
_ATTEMPTS = obs.counter("routing.strategy.multipath.attempts")
_RESCUED = obs.counter("routing.strategy.multipath.served")
_ROUNDS = obs.histogram("routing.strategy.purification.rounds", buckets=(1, 2, 3, 4, 6))
_EXHAUSTED = obs.counter("routing.strategy.denied.route_exhausted")
_MEMORY_FULL = obs.counter("routing.strategy.denied.memory_full")
_INSTALLED = obs.counter("routing.paths.installed")
_UNINSTALLED = obs.counter("routing.paths.uninstalled")
_HITS = obs.counter("routing.paths.hits")


def projection_fidelity(eta: float) -> float:
    """Werner (projection) fidelity of a pair delivered over ``eta``.

    The squared-convention closed form ``((1 + sqrt(eta)) / 2)^2`` —
    the overlap with the target Bell state after amplitude damping,
    which is the quantity the purification recurrence acts on. The
    density-matrix oracle in :mod:`repro.network.protocols` reproduces
    it exactly (pinned in ``tests/routing/``).
    """
    return float(entanglement_fidelity_from_transmissivity(eta, convention="squared"))


def distill_step(f1: float, f2: float) -> float:
    """BBPSSW output fidelity for two Werner pairs of fidelity f1, f2.

    The standard recurrence (success branch) after twirling both inputs
    to Werner form — identical to running
    :func:`repro.network.protocols.dejmps_purification` on the twirled
    density matrices, but in closed form for the serving hot path.
    """
    num = f1 * f2 + (1.0 - f1) * (1.0 - f2) / 9.0
    den = (
        f1 * f2
        + (f1 * (1.0 - f2) + f2 * (1.0 - f1)) / 3.0
        + 5.0 * (1.0 - f1) * (1.0 - f2) / 9.0
    )
    return num / den


@dataclass(frozen=True)
class StrategyConfig:
    """Declarative multipath-strategy knobs (picklable; shard workers
    rebuild an identical strategy from this record).

    Attributes:
        router: ``"shortest"`` (legacy single path, the default) or
            ``"k-shortest"`` (Yen multipath rescue).
        k: paths held concurrently per rescue attempt; ``k = 1`` keeps
            the strategy inert (the equivalence leg).
        memory_slots: entanglement-memory slots per intermediate
            platform (2 per transit pair); ``None`` = unbounded.
        eta_relax: per-link transmissivity threshold of the relaxed
            graph rescue paths route over (elevation gate unchanged).
        fidelity_floor: minimum delivered fidelity, in the engine's
            convention; ``None`` derives the baseline floor
            ``F(threshold^2)`` — the worst fidelity the strict policy
            itself admits on a two-hop path.
        max_rounds: purification-round budget per request.
        decoherence_window_s: how long a reserved pair stays usable;
            ``None`` = no expiry.
        swap_latency_s: per-hop establishment latency, the clock that
            ages earlier pairs while later paths are established.
        scan_limit: Yen enumeration budget per rescue (candidate paths
            examined, including memory-rejected ones); ``None`` derives
            ``max(4 * k, 8)``.
    """

    router: str = "shortest"
    k: int = 2
    memory_slots: int | None = 4
    eta_relax: float = 0.5
    fidelity_floor: float | None = None
    max_rounds: int = 3
    decoherence_window_s: float | None = 1.0
    swap_latency_s: float = 0.01
    scan_limit: int | None = None

    def __post_init__(self) -> None:
        if self.router not in ROUTERS:
            raise ValidationError(
                f"unknown router {self.router!r}; expected one of {ROUTERS}"
            )
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if self.memory_slots is not None and self.memory_slots < 0:
            raise ValidationError(f"memory_slots must be >= 0, got {self.memory_slots}")
        if not 0.0 < self.eta_relax <= 1.0:
            raise ValidationError(f"eta_relax must be in (0, 1], got {self.eta_relax}")
        if self.max_rounds < 1:
            raise ValidationError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.swap_latency_s < 0.0:
            raise ValidationError(
                f"swap_latency_s must be >= 0, got {self.swap_latency_s}"
            )
        if self.scan_limit is not None and self.scan_limit < self.k:
            raise ValidationError(
                f"scan_limit must be >= k, got {self.scan_limit} < {self.k}"
            )


@dataclass(frozen=True)
class CandidatePath:
    """One enumerated rescue path.

    Attributes:
        path: full node sequence, endpoints included.
        eta: end-to-end transmissivity.
        interiors: intermediate *platform* names — the nodes whose
            entanglement memories the path occupies.
    """

    path: tuple[str, ...]
    eta: float
    interiors: tuple[str, ...]

    @property
    def hops(self) -> int:
        """Number of links (= sequential pair-establishment stages)."""
        return len(self.path) - 1


@dataclass(frozen=True)
class MultipathPlan:
    """Outcome of one rescue attempt.

    Attributes:
        served: whether distillation reached the fidelity floor.
        path: primary (highest-fidelity) path when served.
        eta: the primary path's end-to-end transmissivity.
        fidelity: distilled fidelity in the engine's convention.
        n_paths: pairs consumed by the distillation (>= 2 when served).
        rounds: purification rounds performed.
        cause: ``route_exhausted`` / ``memory_full`` when unserved.
    """

    served: bool
    path: tuple[str, ...] = ()
    eta: float = 0.0
    fidelity: float = float("nan")
    n_paths: int = 0
    rounds: int = 0
    cause: str | None = None


class PathTable:
    """Installed candidate-path sets, keyed by ``(src, dst)`` per epoch.

    An epoch identifies one link-state snapshot (the cache's weighted
    feasible-edge key, or the timestamp on the direct path). Lookups
    within an epoch reuse the installed enumeration; advancing the
    epoch uninstalls every entry and returns the pairs that were
    active, so the strategy can proactively re-install them against the
    new snapshot before traffic arrives.
    """

    def __init__(self) -> None:
        self._epoch: Hashable | None = None
        self._entries: dict[tuple[str, str], tuple[CandidatePath, ...]] = {}

    @property
    def epoch(self) -> Hashable | None:
        """The snapshot identity current entries were installed for."""
        return self._epoch

    def __len__(self) -> int:
        return len(self._entries)

    def advance(self, epoch: Hashable) -> list[tuple[str, str]]:
        """Enter ``epoch``; uninstall stale entries, return their pairs."""
        if epoch == self._epoch:
            return []
        stale = list(self._entries)
        _UNINSTALLED.inc(len(stale))
        self._entries.clear()
        self._epoch = epoch
        return stale

    def lookup(self, pair: tuple[str, str]) -> tuple[CandidatePath, ...] | None:
        """Installed candidates for ``pair`` in the current epoch."""
        hit = self._entries.get(pair)
        if hit is not None:
            _HITS.inc()
        return hit

    def install(
        self, pair: tuple[str, str], candidates: tuple[CandidatePath, ...]
    ) -> None:
        """Install an enumeration for ``pair`` under the current epoch."""
        self._entries[pair] = candidates
        _INSTALLED.inc()


class KShortestStrategy:
    """Yen k-shortest multipath rescue with memory-aware purification.

    Built once per engine (:func:`build_strategy`); holds the path
    table and derived policy/floor values, but no per-request state —
    every :meth:`plan` call scopes its own :class:`MemoryPool`.

    Args:
        config: the declarative knobs.
        policy: the engine's strict admission policy (floor + relaxed
            policy derive from it).
        fidelity_convention: ``"sqrt"`` / ``"squared"`` — the space
            ``fidelity_floor`` and delivered fidelities live in.
        epsilon: routing-metric epsilon (shared with the strict router).
    """

    def __init__(
        self,
        config: StrategyConfig,
        *,
        policy: LinkPolicy | None = None,
        fidelity_convention: str = "sqrt",
        epsilon: float = DEFAULT_EPSILON,
    ) -> None:
        base = policy or LinkPolicy()
        self.config = config
        self.policy = base
        self.fidelity_convention = fidelity_convention
        self.epsilon = epsilon
        self.relaxed_policy = LinkPolicy(
            transmissivity_threshold=config.eta_relax,
            min_elevation_rad=base.min_elevation_rad,
        )
        floor = (
            config.fidelity_floor
            if config.fidelity_floor is not None
            else float(
                entanglement_fidelity_from_transmissivity(
                    base.transmissivity_threshold**2, convention=fidelity_convention
                )
            )
        )
        self.fidelity_floor = floor
        # The distillation recurrence runs in projection (squared) space.
        self.floor_projection = floor**2 if fidelity_convention == "sqrt" else floor
        self.table = PathTable()

    @property
    def active(self) -> bool:
        """Whether the strategy ever intervenes (k >= 2 rescue)."""
        return self.config.router == "k-shortest" and self.config.k >= 2

    @property
    def scan_limit(self) -> int:
        """Yen enumeration budget per rescue attempt."""
        if self.config.scan_limit is not None:
            return self.config.scan_limit
        return max(4 * self.config.k, 8)

    def _to_convention(self, f_projection: float) -> float:
        return (
            math.sqrt(f_projection)
            if self.fidelity_convention == "sqrt"
            else f_projection
        )

    # --- candidate enumeration ----------------------------------------------

    def candidates(
        self,
        pair: tuple[str, str],
        epoch: Hashable,
        enumerate_pair: Callable[[tuple[str, str]], tuple[CandidatePath, ...]],
    ) -> tuple[CandidatePath, ...]:
        """Path-table front end: lookup, else install (proactively
        re-installing the previous epoch's active pairs first)."""
        for stale in self.table.advance(epoch):
            self.table.install(stale, enumerate_pair(stale))
        cached = self.table.lookup(pair)
        if cached is not None:
            return cached
        fresh = enumerate_pair(pair)
        self.table.install(pair, fresh)
        return fresh

    def graph_candidates(
        self,
        graph: "LinkGraph",
        source: str,
        destination: str,
        is_platform: Callable[[str], bool],
    ) -> tuple[CandidatePath, ...]:
        """Yen enumeration over a relaxed link graph."""
        if source not in graph or destination not in graph:
            return ()
        out: list[CandidatePath] = []
        for path, _cost in yen_paths(graph, source, destination, self.epsilon):
            out.append(
                CandidatePath(
                    path=tuple(path),
                    eta=path_transmissivity(path_edges(graph, path)),
                    interiors=tuple(n for n in path[1:-1] if is_platform(n)),
                )
            )
            if len(out) >= self.scan_limit:
                break
        return tuple(out)

    # --- the rescue core ----------------------------------------------------

    def plan(self, candidates: Sequence[CandidatePath], t_s: float) -> MultipathPlan:
        """Reserve memory along candidate paths, distill, and decide.

        Candidates must arrive cost-ordered (Yen order).
        Paths are accepted while memory admits them (2 slots per
        interior platform, atomically) up to ``k`` held pairs; the
        establishment clock advances one ``swap_latency_s`` per hop, so
        earlier pairs age — and may decohere — while later paths come
        up. Surviving pairs are distilled greedily, best fidelity
        first, until the floor is cleared or the round budget runs out.
        """
        cfg = self.config
        _ATTEMPTS.inc()
        pool = MemoryPool(cfg.memory_slots, window_s=cfg.decoherence_window_s)
        clock = t_s
        held: list[tuple[CandidatePath, object]] = []
        blocked = 0
        for cand in candidates:
            if len(held) >= cfg.k:
                break
            reservation = pool.try_reserve(cand.interiors, clock, slots_per_node=2)
            if reservation is None:
                blocked += 1
                continue
            clock += cand.hops * cfg.swap_latency_s
            held.append((cand, reservation))
        alive = [c for c, r in held if pool.alive(r, clock)]  # type: ignore[arg-type]
        if len(alive) < 2:
            # A lone relaxed pair is never served: the strict router
            # already owns single-path service, and a sub-threshold
            # link needs a partner pair to distill against.
            if blocked > 0:
                _MEMORY_FULL.inc()
                return MultipathPlan(served=False, cause=DenialCause.MEMORY_FULL.value)
            _EXHAUSTED.inc()
            return MultipathPlan(served=False, cause=DenialCause.ROUTE_EXHAUSTED.value)
        alive.sort(key=lambda c: (-c.eta, c.path))
        f = distill_step(
            projection_fidelity(alive[0].eta), projection_fidelity(alive[1].eta)
        )
        rounds, used = 1, 2
        for cand in alive[2:]:
            if f >= self.floor_projection or rounds >= cfg.max_rounds:
                break
            nxt = distill_step(f, projection_fidelity(cand.eta))
            if nxt <= f:
                break
            f = nxt
            rounds += 1
            used += 1
        if f < self.floor_projection:
            _EXHAUSTED.inc()
            return MultipathPlan(served=False, cause=DenialCause.ROUTE_EXHAUSTED.value)
        primary = alive[0]
        _RESCUED.inc()
        _ROUNDS.observe(rounds)
        return MultipathPlan(
            served=True,
            path=primary.path,
            eta=primary.eta,
            fidelity=self._to_convention(f),
            n_paths=used,
            rounds=rounds,
        )


def build_strategy(
    config: StrategyConfig | None,
    *,
    policy: LinkPolicy | None = None,
    fidelity_convention: str = "sqrt",
    epsilon: float = DEFAULT_EPSILON,
) -> KShortestStrategy | None:
    """Strategy instance for an engine, or ``None`` for the legacy router.

    ``None`` config and ``router="shortest"`` both mean "no strategy" —
    the serving paths then run the unmodified legacy code, which is the
    k-independent half of the equivalence guarantee.
    """
    if config is None or config.router == "shortest":
        return None
    return KShortestStrategy(
        config,
        policy=policy,
        fidelity_convention=fidelity_convention,
        epsilon=epsilon,
    )
