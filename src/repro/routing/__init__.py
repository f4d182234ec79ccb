"""Entanglement routing on transmissivity-weighted link graphs.

The paper routes with Bellman–Ford over the cost metric ``1/(eta + eps)``
(Section III-B, Algorithm 1). This package provides that algorithm —
both a literal routing-table implementation of Algorithm 1 and a fast
relaxation form — plus a Dijkstra solver on the same metric (the
routing-ablation baseline and Yen's spur-path inner solver), Yen's
k-shortest simple paths (:mod:`repro.routing.yen`), bounded
entanglement-memory accounting (:mod:`repro.routing.memory`), and the
pluggable multipath strategy layer (:mod:`repro.routing.strategies`)
the serving engine mounts behind ``--router k-shortest``.
"""

from repro.routing.bellman_ford import (
    BellmanFordResult,
    bellman_ford,
    build_routing_tables,
    shortest_path,
)
from repro.routing.dijkstra import dijkstra, dijkstra_path
from repro.routing.graphtools import (
    ConnectivityReport,
    connectivity_report,
    networkx_path_cost,
    to_networkx,
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
from repro.routing.yen import k_shortest_paths, yen_paths

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
    "k_shortest_paths",
    "projection_fidelity",
    "yen_paths",
    "DEFAULT_EPSILON",
    "edge_cost",
    "path_cost",
    "path_transmissivity",
    "bellman_ford",
    "BellmanFordResult",
    "build_routing_tables",
    "shortest_path",
    "dijkstra",
    "dijkstra_path",
    "to_networkx",
    "networkx_path_cost",
    "connectivity_report",
    "ConnectivityReport",
    "RouteEntry",
    "RoutingTable",
]
