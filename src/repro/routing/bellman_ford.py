"""Bellman–Ford entanglement routing (paper Algorithm 1).

Two interchangeable implementations are provided:

* :func:`build_routing_tables` — a literal rendering of the paper's
  distance-vector pseudocode: every node initialises its table, then all
  nodes run N-1 synchronous UPDATE rounds against their neighbours'
  tables (step 2, the table exchange, is a no-op in-process exactly as the
  paper notes).
* :func:`bellman_ford` — the standard single-source relaxation, used on
  hot paths. The test suite checks both produce identical costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import NoPathError, RoutingError
from repro.network.topology import LinkGraph
from repro.routing.metrics import DEFAULT_EPSILON, edge_cost, path_edges, path_transmissivity
from repro.routing.table import RoutingTable

__all__ = [
    "bellman_ford",
    "BellmanFordResult",
    "FlatGraph",
    "build_routing_tables",
    "shortest_path",
]


@dataclass(frozen=True)
class BellmanFordResult:
    """Single-source shortest-path tree.

    Attributes:
        source: tree root.
        costs: best cost per reachable destination.
        predecessors: previous hop per destination (source maps to None).
    """

    source: str
    costs: dict[str, float]
    predecessors: dict[str, str | None]

    def reachable(self, destination: str) -> bool:
        """Whether the tree holds a finite-cost route to ``destination``."""
        return math.isfinite(self.costs.get(destination, math.inf))

    def path_to(self, destination: str) -> list[str]:
        """Node sequence from the source to ``destination``.

        Raises:
            NoPathError: if the destination is unreachable.
        """
        if destination not in self.costs or not math.isfinite(self.costs[destination]):
            raise NoPathError(self.source, destination)
        path = [destination]
        while path[-1] != self.source:
            prev = self.predecessors[path[-1]]
            if prev is None:
                raise NoPathError(self.source, destination)
            path.append(prev)
        path.reverse()
        return path


class FlatGraph:
    """Flat edge-list rendering of a :data:`LinkGraph` for repeated trees.

    The per-call cost of :func:`bellman_ford` is dominated by rebuilding
    the ``(u, v, cost)`` edge list — one :func:`edge_cost` call per
    directed edge — even though the graph snapshot is identical for
    every source routed at the same time step. ``FlatGraph`` pays that
    conversion once: nodes become integer indices, edges become a list
    of ``(u, v, cost)`` index tuples, and :meth:`tree` relaxes them for
    any source.

    Edge *order* is part of the contract: edges are listed exactly as
    the dict-based loop iterates them (outer dict order, then neighbor
    order) and relaxed sequentially with the same
    ``candidate < cost - 1e-15`` improvement rule, so the resulting
    costs and predecessor trees are bit-identical to the original
    implementation.
    """

    __slots__ = ("nodes", "_index", "_edges", "_n")

    def __init__(self, graph: LinkGraph, epsilon: float = DEFAULT_EPSILON) -> None:
        self.nodes = list(graph)
        self._index = {name: i for i, name in enumerate(self.nodes)}
        index = self._index
        self._edges = [
            (index[u], index[v], edge_cost(eta, epsilon))
            for u, neighbors in graph.items()
            for v, eta in neighbors.items()
        ]
        self._n = len(self.nodes)

    def tree(self, source: str) -> BellmanFordResult:
        """Shortest-path tree rooted at ``source``.

        Raises:
            RoutingError: if ``source`` is not a node of the graph.
        """
        if source not in self._index:
            raise RoutingError(f"source {source!r} is not in the graph")
        src = self._index[source]
        flat_costs = [math.inf] * self._n
        flat_pred = [-1] * self._n
        flat_costs[src] = 0.0
        edges = self._edges
        for _ in range(max(self._n - 1, 1)):
            changed = False
            for u, v, cost in edges:
                candidate = flat_costs[u] + cost
                if candidate < flat_costs[v] - 1e-15:
                    flat_costs[v] = candidate
                    flat_pred[v] = u
                    changed = True
            if not changed:
                break
        nodes = self.nodes
        costs = dict(zip(nodes, flat_costs))
        predecessors = {
            nodes[i]: (nodes[p] if p >= 0 else None) for i, p in enumerate(flat_pred)
        }
        return BellmanFordResult(source, costs, predecessors)


def bellman_ford(
    graph: LinkGraph, source: str, epsilon: float = DEFAULT_EPSILON
) -> BellmanFordResult:
    """Single-source Bellman–Ford over the ``1/(eta + eps)`` metric.

    Args:
        graph: usable-link adjacency ``{u: {v: eta}}``.
        source: start node; must be present in the graph.

    All edge costs are positive, so no negative-cycle pass is needed; the
    relaxation stops early once an entire sweep changes nothing. Callers
    routing many sources over one graph snapshot should build a
    :class:`FlatGraph` once and call :meth:`FlatGraph.tree` instead.
    """
    if source not in graph:
        raise RoutingError(f"source {source!r} is not in the graph")
    return FlatGraph(graph, epsilon).tree(source)


def build_routing_tables(
    graph: LinkGraph, epsilon: float = DEFAULT_EPSILON
) -> dict[str, RoutingTable]:
    """The paper's Algorithm 1: per-node routing tables via N-1 UPDATE rounds.

    INITIALIZE sets each node's cost to itself to 0, to each neighbour to
    ``1/(eta + eps)``, and to everything else to infinity. Each UPDATE
    round lets every node improve its route to any destination ``u`` by
    going through a neighbour ``v`` (cost to ``v`` plus ``v``'s advertised
    cost to ``u``). Rounds are synchronous: all nodes read the previous
    round's tables, exactly like an exchanged-table implementation.
    """
    # INITIALIZE
    tables: dict[str, RoutingTable] = {}
    for node in graph:
        table = RoutingTable(node)
        for other in graph:
            if other == node:
                table.set(other, 0.0, None)
            elif other in graph[node]:
                table.set(other, edge_cost(graph[node][other], epsilon), other)
            else:
                table.set(other, math.inf, None)
        tables[node] = table

    # N-1 synchronous UPDATE rounds.
    nodes = list(graph)
    for _ in range(max(len(nodes) - 1, 1)):
        changed = False
        snapshot = {
            name: {dest: tables[name].get(dest) for dest in nodes} for name in nodes
        }
        for node in nodes:
            for v, eta in graph[node].items():
                cost_to_v = edge_cost(eta, epsilon)
                for dest in nodes:
                    advertised = snapshot[v][dest].cost
                    candidate = cost_to_v + advertised
                    if candidate < tables[node].cost(dest) - 1e-15:
                        tables[node].set(dest, candidate, v)
                        changed = True
        if not changed:
            break
    return tables


def shortest_path(
    graph: LinkGraph, source: str, destination: str, epsilon: float = DEFAULT_EPSILON
) -> tuple[list[str], float]:
    """Best path and its end-to-end transmissivity.

    Returns:
        ``(path, eta_path)`` where ``eta_path`` is the product of per-link
        transmissivities along the minimum-cost path.

    Raises:
        NoPathError: if no usable route exists.
    """
    result = bellman_ford(graph, source, epsilon)
    path = result.path_to(destination)
    return path, path_transmissivity(path_edges(graph, path))
