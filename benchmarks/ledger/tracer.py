"""Benchmark-side layer tracing: per-layer calls and self time.

The program carries no tracing of its own for this ledger. Instead the
traced run replaces each layer's public functions, on the class
attribute or module global where callers look them up, with a wrapper
that records one span per call, and puts the originals back afterwards.

Self time is a span's duration minus the time covered by wrapped
children, so the self times of all layers plus the self time of the
phase roots add up to the wall time of the phases. The roots are
``serve.server`` (a serve phase: admission, queues, recording and the
asyncio machinery, i.e. everything outside a wrapped call) and
``bench.glue`` (set-up and sweep phases: the benchmark's own code
outside a wrapped call). In an open-loop phase, the event loop's waits
in its selector and the load generator's busy-waits are their own
layer, ``asyncio.idle``, so idle gaps are not charged to the server.

Each span is folded into its layer's totals as it closes; no span is
kept.
"""

from __future__ import annotations

import functools
import importlib
import selectors
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

__all__ = [
    "IDLE_LAYER",
    "LAYERS",
    "LAYER_NAMES",
    "ROOT_LAYERS",
    "Target",
    "Tracer",
    "resolve",
]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module[.owner].attr``."""

    module: str
    owner: str | None
    attr: str


def _method(module: str, owner: str, *attrs: str) -> tuple[Target, ...]:
    return tuple(Target(module, owner, a) for a in attrs)


def _globals(*pairs: tuple[str, str]) -> tuple[Target, ...]:
    return tuple(Target(module, None, attr) for module, attr in pairs)


#: Layer name -> the functions whose calls it owns. Module globals are
#: wrapped where the caller reads them: ``repro.network.simulator``
#: binds ``path_edges`` at import, so wrapping ``repro.routing.metrics``
#: would miss every serving call.
LAYERS: dict[str, tuple[Target, ...]] = {
    "serve.build": _globals(("repro.serve.engine", "build_engine")),
    "serve.engine": _method(
        "repro.serve.engine", "SimulatorServeEngine", "submit", "advance_to"
    ),
    "network.simulator": _method(
        "repro.network.simulator", "NetworkSimulator", "serve_request"
    ),
    "routing.path": _method("repro.routing.bellman_ford", "BellmanFordResult", "path_to"),
    "routing.metrics": _globals(
        ("repro.network.simulator", "path_edges"),
        ("repro.network.simulator", "path_transmissivity"),
    ),
    "quantum.fidelity": _globals(
        ("repro.network.simulator", "entanglement_fidelity_from_transmissivity"),
        ("repro.core.sweeps", "entanglement_fidelity_from_transmissivity"),
    ),
    "engine.linkstate.build": _method(
        "repro.engine.linkstate", "LinkStateCache", "__init__"
    ),
    "engine.linkstate.graph": _method(
        "repro.engine.linkstate", "LinkStateCache", "graph_at_index"
    ),
    "engine.linkstate.route": _method(
        "repro.engine.linkstate", "LinkStateCache", "routing_tree_at_index"
    ),
    "routing.bellman_ford": _method("repro.routing.bellman_ford", "FlatGraph", "tree"),
    "network.attribution": _method(
        "repro.network.simulator", "NetworkSimulator", "denial_cause"
    ),
    "routing.strategies.candidates": _method(
        "repro.routing.strategies", "KShortestStrategy", "candidates"
    ),
    "routing.strategies.plan": _method(
        "repro.routing.strategies", "KShortestStrategy", "plan"
    ),
    # WindowedCounter.inc is left out: three calls per request at
    # ~0.3 µs each pushed serve-hour's tracing overhead past 50 %. Its
    # cost is charged to the caller (serve.server or serve.engine).
    "obs.live": (
        _method("repro.obs.live", "WindowedGauge", "set")
        + _method(
            "repro.obs.live", "WindowedHistogram", "observe", "observe_with_exemplar"
        )
    ),
    "orbits.ephemeris": _globals(("repro.orbits.ephemeris", "generate_movement_sheet")),
    "engine.budgets": _method(
        "repro.engine.budgets", "LinkBudgetTable", "compute_all", "at_time_indices"
    ),
    "core.analysis.serve": _method("repro.core.analysis", "SpaceGroundAnalysis", "serve"),
    "core.coverage": (
        _method("repro.core.analysis", "SpaceGroundAnalysis", "cumulative_all_pairs_connected")
        + _globals(("repro.core.sweeps", "coverage_from_mask"))
    ),
    "core.sweeps": _globals(("repro.core.sweeps", "run_constellation_sweep")),
}

#: Phase roots: their self time is the phase minus every wrapped call.
ROOT_LAYERS = ("serve.server", "bench.glue")
#: The event loop's selector wait.
IDLE_LAYER = "asyncio.idle"
#: Every layer the ledger reports, roots first.
LAYER_NAMES = ROOT_LAYERS + (IDLE_LAYER,) + tuple(LAYERS)


def resolve(target: Target) -> object:
    """The module or class that holds ``target.attr``.

    ``importlib.import_module`` returns the module from ``sys.modules``;
    attribute access on the package would not always do so, because
    ``repro.routing`` re-exports a function named ``bellman_ford`` that
    shadows its submodule.
    """
    module = importlib.import_module(target.module)
    return module if target.owner is None else getattr(module, target.owner)


class Tracer:
    """Per-layer span recorder with self-time arithmetic.

    Args:
        clock: monotonic clock in seconds (tests inject a fake one).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # layer -> [calls, self seconds]; a list cell is the cheapest
        # thing for the wrapper to update.
        self._cells: dict[str, list] = {name: [0, 0.0] for name in LAYER_NAMES}
        # Child-time accumulators of the open spans, innermost last, over
        # a base entry that absorbs calls made outside any span.
        self._stack: list[float] = [0.0]
        self._installed: list[tuple[object, str, object]] = []

    def wrap(
        self,
        layer: str,
        fn: Callable,
        observe: Callable[[tuple, object], None] | None = None,
    ) -> Callable:
        """``fn`` recording one ``layer`` span per call.

        ``observe(args, result)`` runs inside the span after ``fn``
        returns; the ledger's ratios (cache hits, rescues) come from it.
        """
        stack = self._stack
        clock = self.clock
        cell = self._cells.setdefault(layer, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                dur = clock() - t0
                cell[0] += 1
                cell[1] += dur - stack.pop()
                stack[-1] += dur

        return wrapper

    def calls(self, layer: str) -> int:
        """Completed spans of ``layer``."""
        return self._cells[layer][0]

    def self_s(self, layer: str) -> float:
        """Self time of ``layer`` [s]."""
        return self._cells[layer][1]

    def phase(self, root: str, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` as one ``root`` span.

        The root's self time is whatever part of the call no wrapped
        function covers.
        """
        return self.wrap(root, fn)(*args, **kwargs)

    def selector(self) -> selectors.BaseSelector:
        """An event-loop selector whose waits are ``asyncio.idle`` spans."""
        selector = selectors.DefaultSelector()
        selector.select = self.wrap(IDLE_LAYER, selector.select)  # type: ignore[method-assign]
        return selector

    @contextmanager
    def installed(
        self, observers: Mapping[str, Callable[[tuple, object], None]] | None = None
    ) -> Iterator["Tracer"]:
        """Wrap every :data:`LAYERS` target; restore the originals on exit."""
        observers = observers or {}
        try:
            for layer, targets in LAYERS.items():
                for target in targets:
                    owner = resolve(target)
                    original = vars(owner)[target.attr]
                    setattr(
                        owner,
                        target.attr,
                        self.wrap(layer, original, observers.get(layer)),
                    )
                    self._installed.append((owner, target.attr, original))
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)

    def ledger(self) -> dict[str, float]:
        """``<layer>.calls``, ``<layer>.self_s`` and ``<layer>.self_us_per_call``."""
        out: dict[str, float] = {}
        for layer in LAYER_NAMES:
            n, s = self._cells[layer]
            out[f"{layer}.calls"] = n
            out[f"{layer}.self_s"] = s
            out[f"{layer}.self_us_per_call"] = 1e6 * s / n if n else 0.0
        return out

    def total_self_s(self) -> float:
        """Sum of every layer's self time."""
        return sum(cell[1] for cell in self._cells.values())
