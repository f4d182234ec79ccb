"""Physical and astronomical constants used throughout the QNTN simulator.

All constants use SI-derived units consistent with the package conventions:
kilometres for lengths, seconds for time, radians for angles. Wavelengths
are in metres because optics formulae are conventionally written that way;
helpers that mix the two are explicit about units in their docstrings.
"""

from __future__ import annotations

import math

__all__ = [
    "EARTH_RADIUS_KM",
    "EARTH_MU_KM3_S2",
    "EARTH_J2",
    "EARTH_J2_REFERENCE_RADIUS_KM",
    "EARTH_ROTATION_RATE_RAD_S",
    "EARTH_FLATTENING",
    "WGS84_A_KM",
    "WGS84_B_KM",
    "WGS84_E2",
    "SIDEREAL_DAY_S",
    "SOLAR_DAY_S",
    "DAY_MINUTES",
    "SPEED_OF_LIGHT_KM_S",
    "SPEED_OF_LIGHT_M_S",
    "FIBER_REFRACTIVE_INDEX",
    "DEFAULT_WAVELENGTH_M",
    "QNTN_SATELLITE_ALTITUDE_KM",
    "QNTN_SEMI_MAJOR_AXIS_KM",
    "QNTN_INCLINATION_RAD",
    "QNTN_HAP_ALTITUDE_KM",
    "QNTN_HAP_LAT_DEG",
    "QNTN_HAP_LON_DEG",
    "QNTN_MIN_ELEVATION_RAD",
    "QNTN_TRANSMISSIVITY_THRESHOLD",
    "QNTN_FIBER_ATTENUATION_DB_KM",
    "QNTN_EPHEMERIS_STEP_S",
    "deg2rad",
    "rad2deg",
    "db_to_linear",
    "linear_to_db",
]

# --- Earth model -----------------------------------------------------------

#: Mean spherical Earth radius [km]; used for great-circle geometry.
EARTH_RADIUS_KM: float = 6371.0

#: Earth's gravitational parameter GM [km^3 / s^2].
EARTH_MU_KM3_S2: float = 398600.4418

#: Second zonal harmonic of Earth's gravity field (dimensionless).
EARTH_J2: float = 1.08262668e-3

#: Equatorial radius that ``EARTH_J2`` is normalised to [km]; the J2
#: secular rates scale with ``(R / p)**2`` in this radius, not the mean one.
EARTH_J2_REFERENCE_RADIUS_KM: float = 6378.137

#: Earth's sidereal rotation rate [rad/s].
EARTH_ROTATION_RATE_RAD_S: float = 7.2921150e-5

#: WGS-84 flattening (dimensionless).
EARTH_FLATTENING: float = 1.0 / 298.257223563

#: WGS-84 semi-major axis [km].
WGS84_A_KM: float = 6378.137

#: WGS-84 semi-minor axis [km].
WGS84_B_KM: float = WGS84_A_KM * (1.0 - EARTH_FLATTENING)

#: WGS-84 first eccentricity squared (dimensionless).
WGS84_E2: float = EARTH_FLATTENING * (2.0 - EARTH_FLATTENING)

#: Sidereal day [s].
SIDEREAL_DAY_S: float = 86164.0905

#: Mean solar day [s].
SOLAR_DAY_S: float = 86400.0

#: Minutes in a day, the denominator of the paper's coverage percentage Eq. (7).
DAY_MINUTES: float = 1440.0

# --- Optics / propagation ---------------------------------------------------

#: Speed of light in vacuum [km/s].
SPEED_OF_LIGHT_KM_S: float = 299792.458

#: Speed of light in vacuum [m/s].
SPEED_OF_LIGHT_M_S: float = 299792458.0

#: Group refractive index of standard telecom fiber (dimensionless).
FIBER_REFRACTIVE_INDEX: float = 1.468

#: Default optical carrier wavelength [m] (810 nm downlink, as used by
#: satellite entanglement-distribution experiments such as Micius).
DEFAULT_WAVELENGTH_M: float = 810e-9

# --- QNTN scenario parameters (Sections II & IV of the paper) ---------------

#: Altitude of the LEO constellation [km].
QNTN_SATELLITE_ALTITUDE_KM: float = 500.0

#: Semi-major axis of the constellation orbits [km] (paper: 6871 km).
QNTN_SEMI_MAJOR_AXIS_KM: float = 6871.0

#: Inclination of all constellation planes [rad] (paper: 53 degrees).
QNTN_INCLINATION_RAD: float = math.radians(53.0)

#: Altitude of the high-altitude platform [km].
QNTN_HAP_ALTITUDE_KM: float = 30.0

#: HAP hover latitude [deg] (paper Section II-C).
QNTN_HAP_LAT_DEG: float = 35.6692

#: HAP hover longitude [deg] (paper Section II-C).
QNTN_HAP_LON_DEG: float = -85.0662

#: Minimum elevation angle for FSO links [rad] (paper: pi/9 = 20 degrees).
QNTN_MIN_ELEVATION_RAD: float = math.pi / 9.0

#: Transmissivity threshold for establishing a link (paper Fig. 5 analysis).
QNTN_TRANSMISSIVITY_THRESHOLD: float = 0.7

#: Fiber attenuation coefficient [dB/km] (paper Section IV).
QNTN_FIBER_ATTENUATION_DB_KM: float = 0.15

#: Cadence of the satellite movement sheets [s] (paper Section III-C).
QNTN_EPHEMERIS_STEP_S: float = 30.0

# --- Small unit helpers ------------------------------------------------------


def deg2rad(deg: float) -> float:
    """Convert degrees to radians (scalar convenience wrapper)."""
    return math.radians(deg)


def rad2deg(rad: float) -> float:
    """Convert radians to degrees (scalar convenience wrapper)."""
    return math.degrees(rad)


def db_to_linear(db: float) -> float:
    """Convert a decibel power ratio to a linear power ratio."""
    return 10.0 ** (db / 10.0)


def linear_to_db(linear: float) -> float:
    """Convert a linear power ratio to decibels.

    Raises:
        ValueError: if ``linear`` is not strictly positive.
    """
    if linear <= 0.0:
        raise ValueError(f"linear power ratio must be positive, got {linear!r}")
    return 10.0 * math.log10(linear)
