"""Textbook dict-based Dijkstra on the ``1/(eta + eps)`` metric: a test oracle.

All edge costs are positive, so it agrees with Algorithm 1 and with the
production tree (:meth:`repro.routing.bellman_ford.FlatGraph.tree`) on
every optimal cost. Yen's spur solver (:mod:`repro.routing.yen`)
follows it step for step — neighbour order, strict-``<`` relaxations,
``(cost, node)`` heap ties — and ``tests/routing/test_path_install.py``
builds its textbook Yen on :func:`dijkstra_path`. Nothing under
``src/`` imports it.
"""

from __future__ import annotations

import heapq
import math

from repro.errors import NoPathError, RoutingError
from repro.network.topology import LinkGraph
from repro.routing.metrics import DEFAULT_EPSILON, edge_cost, path_edges, path_transmissivity

__all__ = ["dijkstra", "dijkstra_path"]


def dijkstra(
    graph: LinkGraph, source: str, epsilon: float = DEFAULT_EPSILON
) -> tuple[dict[str, float], dict[str, str | None]]:
    """Single-source Dijkstra.

    Returns:
        ``(costs, predecessors)`` with unreachable nodes at infinity.
    """
    if source not in graph:
        raise RoutingError(f"source {source!r} is not in the graph")
    costs: dict[str, float] = {node: math.inf for node in graph}
    predecessors: dict[str, str | None] = {node: None for node in graph}
    costs[source] = 0.0
    heap: list[tuple[float, str]] = [(0.0, source)]
    visited: set[str] = set()
    while heap:
        cost_u, u = heapq.heappop(heap)
        if u in visited:
            continue
        visited.add(u)
        for v, eta in graph[u].items():
            if v in visited:
                continue
            candidate = cost_u + edge_cost(eta, epsilon)
            if candidate < costs[v]:
                costs[v] = candidate
                predecessors[v] = u
                heapq.heappush(heap, (candidate, v))
    return costs, predecessors


def dijkstra_path(
    graph: LinkGraph, source: str, destination: str, epsilon: float = DEFAULT_EPSILON
) -> tuple[list[str], float]:
    """Best path and end-to-end transmissivity via Dijkstra.

    Raises:
        NoPathError: if no usable route exists.
    """
    costs, predecessors = dijkstra(graph, source, epsilon)
    if destination not in costs or not math.isfinite(costs[destination]):
        raise NoPathError(source, destination)
    path = [destination]
    while path[-1] != source:
        prev = predecessors[path[-1]]
        if prev is None:
            raise NoPathError(source, destination)
        path.append(prev)
    path.reverse()
    return path, path_transmissivity(path_edges(graph, path))
