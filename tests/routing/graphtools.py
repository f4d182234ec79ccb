"""The networkx test oracle for routing, plus connectivity diagnostics
and the first ``k`` of Yen's paths.

Converts the simulator's link graphs into :mod:`networkx` graphs so that
(a) the in-house Bellman–Ford/Dijkstra implementations can be
cross-validated against an independent library, and (b) standard
connectivity diagnostics (components, articulation points) can check
topology properties. networkx is a test dependency only (the ``test``
extra); nothing under ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import networkx as nx

from repro.errors import NoPathError, RoutingError
from repro.network.topology import LinkGraph
from repro.routing.metrics import DEFAULT_EPSILON, edge_cost
from repro.routing.yen import yen_paths

__all__ = [
    "k_shortest_paths",
    "to_networkx",
    "networkx_path_cost",
    "ConnectivityReport",
    "connectivity_report",
]


def to_networkx(graph: LinkGraph, epsilon: float = DEFAULT_EPSILON) -> nx.Graph:
    """Build an undirected networkx graph with per-edge routing costs.

    Edge attributes: ``eta`` (transmissivity) and ``weight``
    (``1/(eta + eps)``, the paper's routing metric).
    """
    g = nx.Graph()
    g.add_nodes_from(graph)
    for u, neighbors in graph.items():
        for v, eta in neighbors.items():
            if not g.has_edge(u, v):
                g.add_edge(u, v, eta=eta, weight=edge_cost(eta, epsilon))
    return g


def networkx_path_cost(
    graph: LinkGraph, source: str, destination: str, epsilon: float = DEFAULT_EPSILON
) -> float:
    """Minimum routing cost via networkx's Dijkstra (cross-check oracle).

    Raises:
        NoPathError: when networkx finds no route.
        RoutingError: when either endpoint is missing.
    """
    if source not in graph or destination not in graph:
        raise RoutingError(f"unknown endpoint in ({source!r}, {destination!r})")
    g = to_networkx(graph, epsilon)
    try:
        return float(nx.shortest_path_length(g, source, destination, weight="weight"))
    except nx.NetworkXNoPath:
        raise NoPathError(source, destination) from None


@dataclass(frozen=True)
class ConnectivityReport:
    """Structural summary of a link-graph snapshot.

    Attributes:
        n_nodes / n_edges: graph size.
        n_components: connected components (isolated nodes count).
        largest_component_size: node count of the biggest component.
        n_articulation_points: single points of failure.
        lans_connected: whether all named LANs share one component.
    """

    n_nodes: int
    n_edges: int
    n_components: int
    largest_component_size: int
    n_articulation_points: int
    lans_connected: bool


def connectivity_report(
    graph: LinkGraph, lan_members: dict[str, list[str]] | None = None
) -> ConnectivityReport:
    """Compute a :class:`ConnectivityReport` for a snapshot.

    Args:
        graph: usable-link adjacency.
        lan_members: optional LAN membership to evaluate the paper's
            all-LANs-connected coverage condition structurally.
    """
    g = to_networkx(graph)
    components = list(nx.connected_components(g))
    largest = max((len(c) for c in components), default=0)

    lans_ok = False
    if lan_members:
        # Every LAN must have at least one member inside a single shared
        # component.
        for component in components:
            if all(any(m in component for m in members) for members in lan_members.values()):
                lans_ok = True
                break

    return ConnectivityReport(
        n_nodes=g.number_of_nodes(),
        n_edges=g.number_of_edges(),
        n_components=len(components),
        largest_component_size=largest,
        n_articulation_points=sum(1 for _ in nx.articulation_points(g)),
        lans_connected=lans_ok,
    )


def k_shortest_paths(
    graph: LinkGraph, source: str, destination: str, k: int
) -> list[tuple[list[str], float]]:
    """The best ``k`` simple paths as ``(path, cost)``: the first ``k``
    that :func:`~repro.routing.yen.yen_paths` yields."""
    return list(islice(yen_paths(graph, source, destination), k))
