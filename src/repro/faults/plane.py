"""The compiled fault plane: per-time masks and attenuation queries.

:class:`FaultPlane` indexes a realized schedule's events three ways —
node downtime windows, link flap windows, and per-site fade windows —
and answers both scalar (one channel at one time) and vectorized (one
site or edge over a whole sample grid) queries. All three evaluation
paths apply the *same rule* through it:

* the direct path perturbs each
  :meth:`~repro.network.links.QuantumChannel.evaluate` result via
  :meth:`FaultPlane.apply_channel`;
* the link-state cache perturbs each channel's precomputed eta/usable
  series via :meth:`FaultPlane.apply_edge_series`;
* the offline budget-matrix analysis derives a faulted
  :class:`~repro.engine.budgets.SiteLinkBudget` (keeping the healthy
  admission mask alongside for denial attribution) via
  :meth:`FaultPlane.faulted_site_budget`.

Bit-identity: the fade factor ``10**(-dB/10)`` is computed from the
same float literal everywhere and applied as one float64 multiply, and
the factors of stacked fades multiply in event order in both the scalar
and vectorized paths, so the cached-vs-direct equivalence contract of
DESIGN.md §7 survives under faults. A plane with no events reports
``is_noop`` and every consumer short-circuits on it — the empty
schedule is provably a bit-identical no-op.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

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

# Import-time instruments (flag check per record when telemetry is off).
_EVENTS_ACTIVE = obs.gauge("faults.events.active")
_LINK_STEPS_SUPPRESSED = obs.counter("faults.link_steps.suppressed")


def _window_mask(
    windows: Sequence[tuple[float, float]], times: np.ndarray
) -> np.ndarray:
    """Boolean (T,) mask: some window covers each sample (half-open)."""
    mask = np.zeros(times.shape, dtype=bool)
    for start, end in windows:
        mask |= (times >= start) & (times < end)
    return mask


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
        _EVENTS_ACTIVE.set(len(self.events))

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

    def attenuation_factor(self, site: str, t_s: float) -> float:
        """Alias of :meth:`fade_factor` (the DESIGN.md §11 name)."""
        return self.fade_factor(site, t_s)

    # --- vectorized queries (cache and matrix paths) ----------------------------

    def node_up_series(self, name: str, times: np.ndarray) -> np.ndarray | bool:
        """``True`` (scalar) if never down, else a (T,) up-mask."""
        windows = self._node_windows.get(name)
        if not windows:
            return True
        return ~_window_mask(windows, times)

    def link_ok_series(self, name_a: str, name_b: str, times: np.ndarray) -> np.ndarray | bool:
        """``True`` (scalar) if never flapped, else a (T,) ok-mask."""
        windows = self._link_windows.get(_link_key(name_a, name_b))
        if not windows:
            return True
        return ~_window_mask(windows, times)

    def fade_factor_series(self, site: str, times: np.ndarray) -> np.ndarray | float:
        """``1.0`` (scalar) if never faded, else a (T,) factor series."""
        windows = self._fade_windows.get(site)
        if not windows:
            return 1.0
        factor = np.ones(times.shape, dtype=float)
        for start, end, window_factor in windows:
            active = (times >= start) & (times < end)
            factor[active] *= window_factor
        return factor

    def platform_up_matrix(
        self, names: Sequence[str], times: np.ndarray
    ) -> np.ndarray | bool:
        """``True`` (scalar) or an (N, T) up-mask over the named platforms."""
        if not any(name in self._node_windows for name in names):
            return True
        up = np.ones((len(names), times.size), dtype=bool)
        for row, name in enumerate(names):
            windows = self._node_windows.get(name)
            if windows:
                up[row] = ~_window_mask(windows, times)
        return up

    def link_ok_matrix(
        self, site: str, names: Sequence[str], times: np.ndarray
    ) -> np.ndarray | bool:
        """``True`` (scalar) or an (N, T) ok-mask for site-platform links."""
        keys = [_link_key(site, name) for name in names]
        if not any(key in self._link_windows for key in keys):
            return True
        ok = np.ones((len(names), times.size), dtype=bool)
        for row, key in enumerate(keys):
            windows = self._link_windows.get(key)
            if windows:
                ok[row] = ~_window_mask(windows, times)
        return ok

    # --- appliers: one shared rule for all three evaluation paths ---------------

    def _channel_fade_factor(self, channel: QuantumChannel, t_s: float) -> float:
        """Scalar fade factor of a channel: ground FSO endpoints only."""
        if channel.kind is not ChannelKind.FSO:
            return 1.0
        factor = 1.0
        for host in (channel.host_a, channel.host_b):
            if host.kind == "ground":
                factor *= self.fade_factor(host.name, t_s)
        return factor

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
        eta = state.transmissivity
        usable = state.usable
        factor = self._channel_fade_factor(channel, t_s)
        if factor != 1.0:
            eta = eta * factor
            usable = usable and eta >= policy.transmissivity_threshold
        if usable:
            a, b = channel.names
            if self.node_down(a, t_s) or self.node_down(b, t_s) or self.link_cut(a, b, t_s):
                usable = False
        if state.usable and not usable:
            _LINK_STEPS_SUPPRESSED.inc()
        return eta, usable

    def apply_edge_series(
        self,
        channel: QuantumChannel,
        eta: np.ndarray | float,
        usable: np.ndarray | bool,
        times: np.ndarray,
        policy: LinkPolicy,
    ) -> tuple[np.ndarray | float, np.ndarray | bool]:
        """Perturb one channel's precomputed series over the sample grid.

        Mirrors :meth:`apply_channel` element-wise: same fade product
        order, same threshold recheck, same node/link gates — the
        link-state cache stays equivalent to the direct path under any
        schedule.
        """
        if self.is_noop:
            return eta, usable
        a, b = channel.names
        healthy = usable
        factor: np.ndarray | float = 1.0
        if channel.kind is ChannelKind.FSO:
            for host in (channel.host_a, channel.host_b):
                if host.kind == "ground":
                    factor = factor * self.fade_factor_series(host.name, times)
        if not (isinstance(factor, float) and factor == 1.0):
            eta = eta * factor
            usable = usable & (np.asarray(eta) >= policy.transmissivity_threshold)
        up = self.node_up_series(a, times)
        if up is not True:
            usable = usable & up
        up = self.node_up_series(b, times)
        if up is not True:
            usable = usable & up
        ok = self.link_ok_series(a, b, times)
        if ok is not True:
            usable = usable & ok
        suppressed = np.broadcast_to(np.asarray(healthy), times.shape) & ~np.broadcast_to(
            np.asarray(usable), times.shape
        )
        _LINK_STEPS_SUPPRESSED.inc(int(np.count_nonzero(suppressed)))
        return eta, usable

    def faulted_site_budget(
        self,
        budget: "SiteLinkBudget",
        ephemeris: "Ephemeris",
        policy: LinkPolicy,
    ) -> "SiteLinkBudget":
        """Derive a faulted :class:`SiteLinkBudget` from a healthy one.

        The healthy admission mask rides along as ``usable_healthy`` so
        the matrix path's denial attribution can tell "blocked only by
        faults" apart from physics denials. Content-addressed artifact
        stores always cache the *healthy* budget — this derivation runs
        after load, never before persist.
        """
        from repro.engine.budgets import SiteLinkBudget

        if self.is_noop:
            return budget
        site_name = budget.site.name
        times = ephemeris.times_s
        eta = budget.transmissivity
        usable = budget.usable
        factor = self.fade_factor_series(site_name, times)
        if not (isinstance(factor, float) and factor == 1.0):
            eta = eta * factor
            usable = usable & (eta >= policy.transmissivity_threshold)
        site_up = self.node_up_series(site_name, times)
        if site_up is not True:
            usable = usable & site_up
        platforms_up = self.platform_up_matrix(ephemeris.names, times)
        if platforms_up is not True:
            usable = usable & platforms_up
        links_ok = self.link_ok_matrix(site_name, ephemeris.names, times)
        if links_ok is not True:
            usable = usable & links_ok
        if usable is budget.usable:
            usable = usable.copy()
        _LINK_STEPS_SUPPRESSED.inc(int(np.count_nonzero(budget.usable & ~usable)))
        return SiteLinkBudget(
            budget.site,
            budget.elevation_rad,
            budget.slant_range_km,
            eta,
            usable,
            usable_healthy=budget.usable,
        )
