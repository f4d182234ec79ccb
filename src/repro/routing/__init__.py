"""Entanglement routing on transmissivity-weighted link graphs.

The paper routes with Bellman–Ford over the cost metric ``1/(eta + eps)``
(Section III-B, Algorithm 1). This package provides a literal
routing-table implementation of Algorithm 1 and the single-source tree
the routers use (Dijkstra over a CSR adjacency: all costs are positive,
so it returns Algorithm 1's optimal costs), Yen's k-shortest simple
paths (:mod:`repro.routing.yen`), bounded
entanglement-memory accounting (:mod:`repro.routing.memory`), and the
pluggable multipath strategy layer (:mod:`repro.routing.strategies`)
the serving engine mounts behind ``--router k-shortest``.
"""

from repro.routing.bellman_ford import (
    BellmanFordResult,
    bellman_ford,
    build_routing_tables,
)
from repro.routing.metrics import (
    DEFAULT_EPSILON,
    edge_cost,
    path_cost,
    path_transmissivity,
)
from repro.routing.memory import MemoryPool, Reservation
from repro.routing.strategies import (
    ROUTERS,
    CandidatePath,
    KShortestStrategy,
    MultipathPlan,
    PathTable,
    StrategyConfig,
    build_strategy,
    distill_step,
    projection_fidelity,
)
from repro.routing.table import RouteEntry, RoutingTable
from repro.routing.yen import yen_paths

__all__ = [
    "ROUTERS",
    "CandidatePath",
    "KShortestStrategy",
    "MemoryPool",
    "MultipathPlan",
    "PathTable",
    "Reservation",
    "StrategyConfig",
    "build_strategy",
    "distill_step",
    "projection_fidelity",
    "yen_paths",
    "DEFAULT_EPSILON",
    "edge_cost",
    "path_cost",
    "path_transmissivity",
    "bellman_ford",
    "BellmanFordResult",
    "build_routing_tables",
    "RouteEntry",
    "RoutingTable",
]
