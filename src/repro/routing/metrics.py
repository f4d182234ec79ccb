"""The transmissivity-based routing metric (paper Section III-B).

Transmissivity cannot be used directly as a distance — larger is better
and it lives in [0, 1] — so the paper minimises ``1/(eta + eps)`` with a
small ``eps`` guarding division by zero.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.errors import ValidationError
from repro.network.topology import LinkGraph

__all__ = [
    "DEFAULT_EPSILON",
    "edge_cost",
    "path_cost",
    "path_transmissivity",
    "path_edges",
]

#: The paper's division-by-zero guard in the cost metric.
DEFAULT_EPSILON: float = 1e-6


def edge_cost(transmissivity: float, epsilon: float = DEFAULT_EPSILON) -> float:
    """Routing cost ``1/(eta + eps)`` of a single link."""
    if not 0.0 <= transmissivity <= 1.0 or not math.isfinite(transmissivity):
        raise ValidationError(f"transmissivity must be in [0, 1], got {transmissivity}")
    if epsilon <= 0.0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    return 1.0 / (transmissivity + epsilon)


def path_cost(transmissivities: Iterable[float], epsilon: float = DEFAULT_EPSILON) -> float:
    """Total Bellman–Ford cost of a path (sum of per-edge costs)."""
    return sum(edge_cost(eta, epsilon) for eta in transmissivities)


def path_transmissivity(transmissivities: Iterable[float]) -> float:
    """End-to-end transmissivity of a path (product of per-link eta).

    This is the quantity that parameterises the end-to-end amplitude
    damping, because amplitude-damping channels compose multiplicatively.
    The product is a left fold in path order from ``1.0`` — the order
    ``np.prod`` and the routing tree's
    :meth:`~repro.routing.bellman_ford.BellmanFordResult.eta_to` use, so
    all three agree bit for bit. The ``0 <= eta <= 1`` check rejects NaN
    by itself.
    """
    product = 1.0
    for eta in transmissivities:
        if not 0.0 <= eta <= 1.0:
            raise ValidationError("transmissivities must lie in [0, 1]")
        product *= eta
    return float(product)


def path_edges(graph: LinkGraph, path: Sequence[str]) -> list[float]:
    """Per-link transmissivities along ``path`` in ``graph``.

    Raises:
        ValidationError: if any consecutive pair is not linked.
    """
    etas: list[float] = []
    for u, v in zip(path, path[1:]):
        neighbors = graph.get(u, {})
        if v not in neighbors:
            raise ValidationError(f"path edge {u!r} -> {v!r} does not exist")
        etas.append(neighbors[v])
    return etas
