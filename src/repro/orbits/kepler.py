"""Anomaly conversions and a vectorized Kepler-equation solver.

``solve_kepler`` uses Newton iteration with a third-order Halley step on
stubborn elements, broadcast over arbitrary array shapes; it is the single
transcendental bottleneck of propagation, so it is written allocation-lean
(in-place updates on a working copy) per the HPC guide's advice.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KeplerConvergenceError, ValidationError

__all__ = [
    "solve_kepler",
    "mean_to_eccentric",
    "eccentric_to_mean",
    "eccentric_to_true",
    "true_to_eccentric",
    "mean_to_true",
    "true_to_mean",
    "wrap_angle",
]

_TWO_PI = 2.0 * np.pi


def wrap_angle(angle: np.ndarray | float) -> np.ndarray:
    """Wrap angles into ``[0, 2*pi)`` (vectorized)."""
    return np.mod(np.asarray(angle, dtype=float), _TWO_PI)


def _check_eccentricity(e: np.ndarray) -> None:
    if np.any((e < 0.0) | (e >= 1.0)):
        raise ValidationError("eccentricity must lie in [0, 1) for elliptic orbits")


def solve_kepler(
    mean_anomaly: np.ndarray | float,
    eccentricity: np.ndarray | float,
    *,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> np.ndarray:
    """Solve Kepler's equation ``E - e sin E = M`` for the eccentric anomaly.

    Args:
        mean_anomaly: mean anomaly M [rad]; any broadcastable shape.
        eccentricity: eccentricity e in [0, 1); broadcastable against M.
        tol: absolute tolerance on the Kepler residual.
        max_iter: iteration cap before declaring non-convergence.

    Returns:
        Eccentric anomaly E [rad], wrapped to ``[0, 2*pi)``, with the
        broadcast shape of the inputs.

    Raises:
        KeplerConvergenceError: if any element fails to converge.
    """
    M = wrap_angle(mean_anomaly)
    e = np.asarray(eccentricity, dtype=float)
    _check_eccentricity(e)
    M, e = np.broadcast_arrays(M, e)
    # Initial guess: E0 = M + e*sin(M) is within ~e^2 of the root and keeps
    # Newton monotone for all e < 1 (Danby's starter).
    E = np.sin(M, out=np.empty(M.shape))
    np.add(M, np.multiply(e, E, out=E), out=E)

    # Buffers reused by every iteration: same operations, same order, in place.
    sinE, cosE, f, dE = (np.empty(M.shape) for _ in range(4))
    converged = np.empty(M.shape, dtype=bool)
    for iteration in range(max_iter):
        np.sin(E, out=sinE)
        np.cos(E, out=cosE)
        np.subtract(E, np.multiply(e, sinE, out=f), out=f)  # f = E - e * sinE - M
        np.subtract(f, M, out=f)
        if np.less(np.abs(f, out=dE), tol, out=converged).all():
            return np.mod(E, _TWO_PI, out=E)[()]  # wrap_angle(E); [()] unwraps 0-d
        fp = np.subtract(1.0, np.multiply(e, cosE, out=cosE), out=cosE)  # 1 - e * cosE
        fpp = np.multiply(e, sinE, out=sinE)  # e * sinE
        # Halley step: quadratically safeguarded Newton; denominators stay
        # >= 1 - e > 0 so no division guard is needed for elliptic orbits.
        # dE = f / fp; dE = f / (fp - 0.5 * dE * fpp); E = E - dE
        np.multiply(np.multiply(0.5, np.divide(f, fp, out=dE), out=dE), fpp, out=dE)
        np.divide(f, np.subtract(fp, dE, out=dE), out=dE)
        np.subtract(E, dE, out=E)

    residual = float(np.max(np.abs(E - e * np.sin(E) - M)))
    if residual >= tol:
        raise KeplerConvergenceError(max_iter, residual)
    return wrap_angle(E)


def mean_to_eccentric(M: np.ndarray | float, e: np.ndarray | float) -> np.ndarray:
    """Mean anomaly -> eccentric anomaly (alias of :func:`solve_kepler`)."""
    return solve_kepler(M, e)


def eccentric_to_mean(E: np.ndarray | float, e: np.ndarray | float) -> np.ndarray:
    """Eccentric anomaly -> mean anomaly via Kepler's equation."""
    E = np.asarray(E, dtype=float)
    e = np.asarray(e, dtype=float)
    _check_eccentricity(e)
    return wrap_angle(E - e * np.sin(E))


def eccentric_to_true(E: np.ndarray | float, e: np.ndarray | float) -> np.ndarray:
    """Eccentric anomaly -> true anomaly (half-angle tangent form)."""
    E = np.asarray(E, dtype=float)
    e = np.asarray(e, dtype=float)
    _check_eccentricity(e)
    beta = np.sqrt((1.0 + e) / (1.0 - e))
    return wrap_angle(2.0 * np.arctan2(beta * np.sin(E / 2.0), np.cos(E / 2.0)))


def true_to_eccentric(nu: np.ndarray | float, e: np.ndarray | float) -> np.ndarray:
    """True anomaly -> eccentric anomaly (half-angle tangent form)."""
    nu = np.asarray(nu, dtype=float)
    e = np.asarray(e, dtype=float)
    _check_eccentricity(e)
    beta = np.sqrt((1.0 - e) / (1.0 + e))
    return wrap_angle(2.0 * np.arctan2(beta * np.sin(nu / 2.0), np.cos(nu / 2.0)))


def mean_to_true(M: np.ndarray | float, e: np.ndarray | float) -> np.ndarray:
    """Mean anomaly -> true anomaly."""
    return eccentric_to_true(mean_to_eccentric(M, e), e)


def true_to_mean(nu: np.ndarray | float, e: np.ndarray | float) -> np.ndarray:
    """True anomaly -> mean anomaly."""
    return eccentric_to_mean(true_to_eccentric(nu, e), e)
