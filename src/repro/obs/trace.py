"""Denial-cause taxonomy: why one entanglement request went unserved.

The aggregate planes of :mod:`repro.obs` say *that* 57.75 % of requests
were served; every other request carries exactly one canonical
:class:`DenialCause`, folded from the per-gate outcomes over the
candidate uplinks by :func:`classify_denial`. The cause rides on the
request's flight record — the attrs of its root ``request`` event in
the one recording stream (:mod:`repro.obs.events`) — and on every
streamed :class:`~repro.serve.engine.ServeOutcome`.
"""

from __future__ import annotations

import enum

__all__ = ["CAUSES", "DenialCause", "classify_denial"]


class DenialCause(enum.Enum):
    """Canonical reason one request went unserved (exactly one per denial).

    The causes form a cascade over the candidate uplinks, coarsest
    geometry first: no platform visible to both endpoints at all; some
    visible but none clearing the elevation gate (>= pi/9) at both ends;
    some clearing elevation but none clearing the transmissivity gate
    (eta >= 0.7, Fig. 5) at both ends — both judged on *healthy*
    physics; some candidate healthy-usable but every one suppressed by
    the active fault plane (outages, downtime, fades, flaps); every
    per-link gate passable somewhere yet no end-to-end route
    (disconnected link graph).

    ``ROUTE_EXHAUSTED`` and ``MEMORY_FULL`` extend the cascade for the
    multipath strategy layer (:mod:`repro.routing.strategies`): a
    strict-policy denial where relaxed rescue paths *did* exist, but
    purification over them could not reach the fidelity floor
    (``route_exhausted``), or every candidate was turned away by the
    bounded entanglement-memory slots at its intermediate platforms
    (``memory_full``). The legacy router never emits either.

    ``QUEUE_FULL`` sits outside the physics cascade: the streaming
    front end (:mod:`repro.serve`) sheds a request *before* it reaches
    a serving path when its tenant's admission queue is at capacity —
    a shed is still a first-class denial with a canonical cause, never
    a silent drop.
    """

    NO_VISIBLE_SATELLITE = "no_visible_satellite"
    LOW_ELEVATION = "low_elevation"
    LOW_TRANSMISSIVITY = "low_transmissivity"
    FAULT_OUTAGE = "fault_outage"
    NO_ROUTE = "no_route"
    ROUTE_EXHAUSTED = "route_exhausted"
    MEMORY_FULL = "memory_full"
    QUEUE_FULL = "queue_full"


#: All causes, cascade order — the keys of every cause-count mapping.
CAUSES = tuple(c.value for c in DenialCause)


def classify_denial(
    visible_any: bool,
    elevation_any: bool,
    transmissivity_any: bool,
    fault_blocked: bool = False,
) -> DenialCause:
    """Fold cumulative per-gate outcomes into the one canonical cause.

    Args:
        visible_any: some candidate is above the horizon at both ends.
        elevation_any: some visible candidate clears the elevation gate
            at both ends.
        transmissivity_any: some elevation-cleared candidate clears the
            transmissivity gate at both ends (judged on healthy
            physics, before any fault plane).
        fault_blocked: some candidate was healthy-usable but every such
            candidate is suppressed by the active fault plane. Only
            meaningful when ``transmissivity_any`` is true.

    Each flag presumes the previous one (the gates nest); the first
    failed gate in the cascade is the cause.
    """
    if not visible_any:
        return DenialCause.NO_VISIBLE_SATELLITE
    if not elevation_any:
        return DenialCause.LOW_ELEVATION
    if not transmissivity_any:
        return DenialCause.LOW_TRANSMISSIVITY
    if fault_blocked:
        return DenialCause.FAULT_OUTAGE
    return DenialCause.NO_ROUTE
