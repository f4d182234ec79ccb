"""Quantum channels between hosts: fiber (ground-ground) and FSO (to platforms).

A :class:`QuantumChannel` binds two hosts to a physical-layer model and
evaluates its transmissivity at a given simulation time from the hosts'
instantaneous geometry. Whether the link is *usable* is decided by the
network-level policy (transmissivity threshold + minimum elevation), which
lives in :class:`LinkPolicy`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.channels.fiber import FiberChannelModel
from repro.channels.fso import FSOChannelModel
from repro.constants import QNTN_MIN_ELEVATION_RAD, QNTN_TRANSMISSIVITY_THRESHOLD
from repro.errors import LinkError
from repro.network.hap import HAP
from repro.network.host import Host
from repro.orbits.frames import ecef_to_enu_matrix, enu_to_azimuth_elevation
from repro.orbits.visibility import is_visible

__all__ = ["ChannelKind", "LinkState", "LinkPolicy", "QuantumChannel"]


class ChannelKind(enum.Enum):
    """Physical channel families used by the QNTN architectures."""

    FIBER = "fiber"
    FSO = "fso"


@dataclass(frozen=True)
class LinkState:
    """Instantaneous link evaluation.

    Attributes:
        transmissivity: eta in [0, 1].
        distance_km: path length (fiber) or slant range (FSO) [km].
        elevation_rad: elevation of the higher endpoint above the ground
            endpoint's horizon [rad]; NaN for fiber and inter-platform links.
        usable: whether the policy admits the link for routing.
    """

    transmissivity: float
    distance_km: float
    elevation_rad: float
    usable: bool


@dataclass(frozen=True)
class LinkPolicy:
    """Network-level admission rule for links (paper Sections III-A, IV).

    Attributes:
        transmissivity_threshold: minimum eta for a usable link (0.7,
            identified in Fig. 5).
        min_elevation_rad: minimum elevation for ground-to-platform FSO
            links (pi/9).
    """

    transmissivity_threshold: float = QNTN_TRANSMISSIVITY_THRESHOLD
    min_elevation_rad: float = QNTN_MIN_ELEVATION_RAD

    def admits(self, state_eta: float, elevation_rad: float, needs_elevation: bool) -> bool:
        """Whether a link with this evaluation may carry entanglement."""
        if state_eta < self.transmissivity_threshold:
            return False
        if needs_elevation and not (
            math.isfinite(elevation_rad) and elevation_rad >= self.min_elevation_rad
        ):
            return False
        return True


class QuantumChannel:
    """A physical link between two hosts.

    Args:
        host_a: first endpoint.
        host_b: second endpoint.
        model: :class:`FiberChannelModel` (both endpoints on the ground) or
            :class:`FSOChannelModel` (at least one platform endpoint).

    The channel decides its :class:`ChannelKind` from the model type and
    validates it against the endpoint kinds.
    """

    def __init__(
        self,
        host_a: Host,
        host_b: Host,
        model: FiberChannelModel | FSOChannelModel,
    ) -> None:
        if host_a.name == host_b.name:
            raise LinkError(f"channel endpoints must differ, got {host_a.name!r} twice")
        self.host_a = host_a
        self.host_b = host_b
        self.model = model
        if isinstance(model, FiberChannelModel):
            self.kind = ChannelKind.FIBER
            if host_a.kind != "ground" or host_b.kind != "ground":
                raise LinkError(
                    f"fiber channel {host_a.name}-{host_b.name} requires ground endpoints"
                )
        elif isinstance(model, FSOChannelModel):
            self.kind = ChannelKind.FSO
        else:  # pragma: no cover - defensive
            raise LinkError(f"unsupported channel model type {type(model).__name__}")

    def __repr__(self) -> str:
        return (
            f"QuantumChannel({self.host_a.name!r} <-> {self.host_b.name!r}, "
            f"{self.kind.value})"
        )

    @property
    def names(self) -> tuple[str, str]:
        """Endpoint names (a, b)."""
        return self.host_a.name, self.host_b.name

    @property
    def is_ground_to_platform(self) -> bool:
        """Whether exactly one endpoint is a ground station."""
        kinds = {self.host_a.kind == "ground", self.host_b.kind == "ground"}
        return kinds == {True, False}

    def _geometry(self, t_s: float) -> tuple[float, float]:
        """(distance_km, elevation_rad) at time ``t_s``.

        Elevation is measured at the ground endpoint for ground-platform
        links; NaN otherwise.
        """
        pa = self.host_a.position_ecef_km(t_s)
        pb = self.host_b.position_ecef_km(t_s)
        if self.kind is ChannelKind.FIBER or not self.is_ground_to_platform:
            return float(np.linalg.norm(pb - pa)), float("nan")
        ground, site, platform = (
            (self.host_a, pa, pb) if self.host_a.kind == "ground" else (self.host_b, pb, pa)
        )
        t = ecef_to_enu_matrix(ground.lat_rad, ground.lon_rad)
        _, el, rng = enu_to_azimuth_elevation(t @ (platform - site))
        return float(rng), float(el)

    def _platform_altitude_km(self, t_s: float) -> float | None:
        """Altitude of the airborne endpoint, if any [km]."""
        if not self.is_ground_to_platform:
            return None
        platform = self.host_a if self.host_a.kind != "ground" else self.host_b
        if platform.kind == "satellite":
            return platform.nominal_altitude_km  # type: ignore[attr-defined]
        return platform.alt_km

    def _operational(self, t_s: float) -> bool:
        """Whether both endpoints can currently form links (HAP duty cycle)."""
        for host in (self.host_a, self.host_b):
            if isinstance(host, HAP) and not host.is_operational(t_s):
                return False
        return True

    def evaluate(self, t_s: float, policy: LinkPolicy | None = None) -> LinkState:
        """Evaluate transmissivity and usability at time ``t_s``.

        Args:
            t_s: simulation time [s].
            policy: admission policy; defaults to the paper's thresholds.
        """
        if not self._operational(t_s):
            distance, elevation = self._geometry(t_s)
            return LinkState(0.0, distance, elevation, False)
        return self.evaluate_physics(t_s, policy)

    def evaluate_physics(self, t_s: float, policy: LinkPolicy | None = None) -> LinkState:
        """Physical-layer evaluation at ``t_s``, ignoring duty cycles.

        Same as :meth:`evaluate` minus the HAP operational gate; the
        link-state cache evaluates the (time-independent) physics once
        and applies the duty-cycle mask separately per sample.
        """
        policy = policy or LinkPolicy()
        distance, elevation = self._geometry(t_s)

        if self.kind is ChannelKind.FIBER:
            eta = float(np.asarray(self.model.transmissivity(distance)))
            return LinkState(eta, distance, elevation, policy.admits(eta, elevation, False))

        if self.is_ground_to_platform:
            if not is_visible(elevation):
                return LinkState(0.0, distance, elevation, False)
            alt = self._platform_altitude_km(t_s)
            eta = float(
                np.asarray(self.model.transmissivity(distance, elevation, alt))
            )
            return LinkState(eta, distance, elevation, policy.admits(eta, elevation, True))

        # Inter-platform (e.g. inter-satellite) vacuum link.
        eta = float(np.asarray(self.model.transmissivity(distance)))
        return LinkState(eta, distance, elevation, policy.admits(eta, elevation, False))

    def transmissivity(self, t_s: float) -> float:
        """Transmissivity at ``t_s`` (no admission policy applied)."""
        return self.evaluate(t_s).transmissivity
