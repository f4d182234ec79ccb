"""Host types: the base location-aware node and stationary ground stations.

Mirrors the paper's extension of QuNetSim's ``Host`` class with latitude,
longitude, and altitude (Section III-C). Subclasses override
:meth:`Host.position_ecef_km` for platform-specific motion.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.ground_nodes import GroundNode
from repro.errors import ValidationError
from repro.orbits.frames import geodetic_to_ecef

__all__ = ["Host", "GroundStation"]


class Host:
    """A quantum network node with a geodetic location.

    Args:
        name: globally unique identifier.
        lat_deg: geodetic latitude [deg].
        lon_deg: geodetic longitude [deg].
        alt_km: altitude above the ellipsoid [km].
        network: name of the local network the host belongs to (empty for
            relay platforms).
    """

    #: Host kind tag used by link-budget dispatch; overridden by subclasses.
    kind: str = "ground"

    def __init__(
        self,
        name: str,
        lat_deg: float,
        lon_deg: float,
        alt_km: float = 0.0,
        network: str = "",
    ) -> None:
        if not name:
            raise ValidationError("host name must be non-empty")
        if not -90.0 <= lat_deg <= 90.0:
            raise ValidationError(f"latitude {lat_deg} out of range for host {name!r}")
        if not -180.0 <= lon_deg <= 180.0:
            raise ValidationError(f"longitude {lon_deg} out of range for host {name!r}")
        self.name = name
        self.lat_deg = lat_deg
        self.lon_deg = lon_deg
        self.alt_km = alt_km
        self.network = network
        #: ``((lat_deg, lon_deg, alt_km), position)`` of the last
        #: :meth:`position_ecef_km` computation.
        self._ecef: tuple[tuple[float, float, float], np.ndarray] | None = None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, lat={self.lat_deg:.4f}, "
            f"lon={self.lon_deg:.4f}, alt={self.alt_km:g} km)"
        )

    @property
    def lat_rad(self) -> float:
        """Latitude [rad]."""
        return math.radians(self.lat_deg)

    @property
    def lon_rad(self) -> float:
        """Longitude [rad]."""
        return math.radians(self.lon_deg)

    @property
    def is_mobile(self) -> bool:
        """Whether the host's position depends on time."""
        return False

    def position_ecef_km(self, t_s: float) -> np.ndarray:
        """ECEF position at simulation time ``t_s`` [km].

        Stationary hosts ignore ``t_s``: the position is computed once
        per coordinate triple and returned as a read-only array.
        """
        del t_s
        key = (self.lat_deg, self.lon_deg, self.alt_km)
        if self._ecef is None or self._ecef[0] != key:
            position = geodetic_to_ecef(self.lat_rad, self.lon_rad, self.alt_km)
            position.flags.writeable = False
            self._ecef = (key, position)
        return self._ecef[1]

    def altitude_km_at(self, t_s: float) -> float:
        """Altitude above the ellipsoid at ``t_s`` [km]."""
        del t_s
        return self.alt_km


class GroundStation(Host):
    """A stationary ground node belonging to a local network."""

    kind = "ground"

    @classmethod
    def from_ground_node(cls, node: GroundNode) -> "GroundStation":
        """Build a station from a Table I :class:`GroundNode` record."""
        return cls(node.name, node.lat_deg, node.lon_deg, node.alt_km, node.network)
