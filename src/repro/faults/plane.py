"""The compiled fault plane: a scalar oracle and one vectorized applier.

:class:`FaultPlane` indexes a realized schedule's events as node
downtime windows, link flap windows and per-site fade windows, and
applies the one fault rule (:mod:`repro.faults`, DESIGN.md §11) through
two doors: the scalar queries and :meth:`FaultPlane.apply_channel`, one
channel evaluation at a time (the direct path, and the test oracle);
and :meth:`FaultPlane.apply_edges`, a block of edges over a sample grid
(one call per link-state block fill, and one per site's budget records
in :meth:`FaultPlane.faulted_site_budget`). Both pick a channel's faded
endpoint through :meth:`FaultPlane.edge`.

Bit-identity: each fade factor ``10**(-dB/10)`` is computed once per
window, and stacked fades multiply in event order on both doors, so the
cached-vs-direct equivalence contract of DESIGN.md §7 survives under
faults. A plane with no events reports ``is_noop`` and every consumer
short-circuits on it — the empty schedule is a bit-identical no-op.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro import obs
from repro.faults.schedule import (
    FaultEvent,
    GroundStationDowntime,
    LinkFlap,
    SatelliteOutage,
    WeatherFade,
)
from repro.network.links import ChannelKind, LinkPolicy, LinkState, QuantumChannel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.budgets import SiteLinkBudget
    from repro.orbits.ephemeris import Ephemeris

__all__ = ["FaultPlane"]

#: One edge of the applier: its endpoint names and its faded site.
Edge = tuple[str, str, str | None]

# Import-time instrument (flag check per record when telemetry is off).
_LINK_STEPS_SUPPRESSED = obs.counter("faults.link_steps.suppressed")


def _up_series(windows: Sequence[tuple[float, float]], times: np.ndarray) -> np.ndarray:
    """(T,) mask: no outage, downtime or flap window covers the sample."""
    up = np.ones(times.shape, dtype=bool)
    for start, end in windows:
        up &= (times < start) | (times >= end)
    return up


def _fade_series(
    windows: Sequence[tuple[float, float, float]], times: np.ndarray
) -> np.ndarray:
    """(T,) product of the active fade factors, multiplied in event order."""
    factor = np.ones(times.shape, dtype=float)
    for start, end, window_factor in windows:
        factor[(times >= start) & (times < end)] *= window_factor
    return factor


def _series_table(
    keys: Sequence, windows: dict, times: np.ndarray, series: Callable
) -> tuple[np.ndarray, np.ndarray]:
    """``(index, table)``: row ``index[i]`` of ``table`` is
    ``series(windows[keys[i]], times)``; keys without windows share row
    0, ``series((), times)``, so ``index.any()`` says whether any key has
    windows."""
    slots: dict = {}
    index = np.array(
        [slots.setdefault(key, len(slots) + 1) if key in windows else 0 for key in keys],
        dtype=np.intp,
    )
    table = np.stack([series((), times), *(series(windows[key], times) for key in slots)])
    return index, table


def _link_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class FaultPlane:
    """Query plane over a realized fault schedule (see module docstring)."""

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(events)
        self._node_windows: dict[str, list[tuple[float, float]]] = {}
        self._link_windows: dict[tuple[str, str], list[tuple[float, float]]] = {}
        #: per-site fade windows as (start, end, factor) with the factor
        #: precomputed once so scalar and vectorized paths multiply the
        #: exact same float64.
        self._fade_windows: dict[str, list[tuple[float, float, float]]] = {}
        for event in self.events:
            if isinstance(event, SatelliteOutage):
                self._node_windows.setdefault(event.satellite, []).append(
                    (event.start_s, event.end_s)
                )
            elif isinstance(event, GroundStationDowntime):
                self._node_windows.setdefault(event.station, []).append(
                    (event.start_s, event.end_s)
                )
            elif isinstance(event, LinkFlap):
                self._link_windows.setdefault(
                    _link_key(event.node_a, event.node_b), []
                ).append((event.start_s, event.end_s))
            elif isinstance(event, WeatherFade):
                self._fade_windows.setdefault(event.site, []).append(
                    (event.start_s, event.end_s, 10.0 ** (-event.extra_db / 10.0))
                )
            else:  # pragma: no cover - schedule validates event types
                raise TypeError(f"unknown fault event type {type(event).__name__}")

    @property
    def is_noop(self) -> bool:
        """Whether the plane perturbs nothing (the empty schedule)."""
        return not self.events

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultPlane({len(self.events)} events: {len(self._node_windows)} nodes, "
            f"{len(self._link_windows)} links, {len(self._fade_windows)} fade sites)"
        )

    def active_events(self, t_s: float) -> tuple[FaultEvent, ...]:
        """Events whose ``[start_s, end_s)`` window covers ``t_s``.

        Schedule order is preserved; the streaming front end reports
        ``len(active_events(t))`` as its fault-pressure gauge while the
        time cursor advances.
        """
        return tuple(e for e in self.events if e.active(t_s))

    # --- scalar queries (direct serving path) -----------------------------------

    def node_down(self, name: str, t_s: float) -> bool:
        """Whether node ``name`` is inside an outage/downtime window."""
        windows = self._node_windows.get(name)
        if not windows:
            return False
        return any(start <= t_s < end for start, end in windows)

    def link_cut(self, name_a: str, name_b: str, t_s: float) -> bool:
        """Whether the (a, b) link is inside a flap window."""
        windows = self._link_windows.get(_link_key(name_a, name_b))
        if not windows:
            return False
        return any(start <= t_s < end for start, end in windows)

    def fade_factor(self, site: str, t_s: float) -> float:
        """Multiplicative transmissivity factor of the site's active fades.

        1.0 when no fade is active; stacked fades multiply in event
        order (the identical order the vectorized path uses).
        """
        windows = self._fade_windows.get(site)
        if not windows:
            return 1.0
        factor = 1.0
        for start, end, window_factor in windows:
            if start <= t_s < end:
                factor *= window_factor
        return factor

    # --- the rule: a channel's edge, the scalar and the block applier --------

    @staticmethod
    def edge(channel: QuantumChannel) -> Edge:
        """The applier's edge of a channel: ``(name_a, name_b, faded_site)``.

        Weather fades the ground end of an FSO channel between a ground
        site and a platform; fiber (buried glass) and links with no
        ground end never fade, so their faded site is ``None``.
        """
        a, b = channel.host_a, channel.host_b
        site = None
        if channel.kind is ChannelKind.FSO and channel.is_ground_to_platform:
            site = (a if a.kind == "ground" else b).name
        return a.name, b.name, site

    def touches(self, edge: Edge) -> bool:
        """Whether an event acts on ``edge``: an outage or downtime at
        either end, a flap of the link, or a fade at its faded site."""
        a, b, site = edge
        nodes, links, fades = self._node_windows, self._link_windows, self._fade_windows
        return a in nodes or b in nodes or _link_key(a, b) in links or site in fades

    def apply_channel(
        self,
        channel: QuantumChannel,
        state: LinkState,
        t_s: float,
        policy: LinkPolicy,
    ) -> tuple[float, bool]:
        """Perturb one scalar channel evaluation; returns ``(eta, usable)``.

        Fades only ever attenuate, so after the multiply the only gate
        that can newly fail is the transmissivity threshold (the
        elevation and visibility gates are attenuation-independent and
        already folded into ``state.usable``).
        """
        a, b, site = self.edge(channel)
        eta = state.transmissivity
        usable = state.usable
        factor = 1.0 if site is None else self.fade_factor(site, t_s)
        if factor != 1.0:
            eta = eta * factor
            usable = usable and eta >= policy.transmissivity_threshold
        if usable:
            if self.node_down(a, t_s) or self.node_down(b, t_s) or self.link_cut(a, b, t_s):
                usable = False
        if state.usable and not usable:
            _LINK_STEPS_SUPPRESSED.inc()
        return eta, usable

    def apply_edges(
        self,
        edges: Sequence[Edge],
        times: np.ndarray,
        eta: np.ndarray,
        healthy: np.ndarray,
        threshold: float,
        at: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | bool]:
        """Apply the fault rule to a block of edges over a sample grid.

        ``edges`` holds one :meth:`edge` per row; ``eta`` and ``healthy``
        (pre-fault admission) broadcast to ``(len(edges), len(times))``,
        or are per-point arrays at ``at=(edge_rows, sample_cols)``.
        Returns, in the same form, the faded eta, the post-fault
        ``usable`` and the node/link gate ``up`` — ``True`` when no
        outage, downtime or flap touches the block. Point for point this
        is :meth:`apply_channel`; ``faults.link_steps.suppressed`` grows
        by the points the call turns unusable.
        """
        names = [name for a, b, _ in edges for name in (a, b)]
        node, node_up = _series_table(names, self._node_windows, times, _up_series)
        link, link_ok = _series_table(
            [_link_key(a, b) for a, b, _ in edges], self._link_windows, times, _up_series
        )
        fade, factor = _series_table(
            [site for _, _, site in edges], self._fade_windows, times, _fade_series
        )
        rows, cols = (slice(None), slice(None)) if at is None else at
        usable = healthy
        if fade.any():
            eta = eta * factor[fade[rows], cols]
            usable = usable & (eta >= threshold)
        up: np.ndarray | bool = True
        if node.any() or link.any():
            a, b = node[0::2][rows], node[1::2][rows]
            up = node_up[a, cols] & node_up[b, cols] & link_ok[link[rows], cols]
            usable = usable & up
        _LINK_STEPS_SUPPRESSED.inc(int(np.count_nonzero(healthy & ~usable)))
        return eta, usable, up

    def faulted_site_budget(
        self,
        budget: "SiteLinkBudget",
        ephemeris: "Ephemeris",
        policy: LinkPolicy,
    ) -> "SiteLinkBudget":
        """Derive a faulted :class:`SiteLinkBudget` from a healthy one.

        Fades and gates apply to the budget's records: every other point
        is culled, so its eta stays 0 and it stays unusable. The healthy
        admission of each record rides along as ``usable_healthy`` so
        the matrix path's denial attribution can tell "blocked only by
        faults" apart from physics denials. Content-addressed artifact
        stores always cache the *healthy* budget — this derivation runs
        after load, never before persist.
        """
        from repro.engine.budgets import SiteLinkBudget

        if self.is_noop:
            return budget
        site = budget.site.name
        healthy = budget.points["usable"]
        eta, usable, _ = self.apply_edges(
            [(site, name, site) for name in ephemeris.names],
            ephemeris.times_s,
            budget.points["transmissivity"],
            healthy,
            policy.transmissivity_threshold,
            at=np.divmod(budget.points["index"], ephemeris.n_samples),
        )
        points = budget.points.copy()
        points["transmissivity"] = eta
        points["usable"] = usable
        return SiteLinkBudget(budget.site, budget.shape, points, usable_healthy=healthy)
