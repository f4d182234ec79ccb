"""Entanglement routing on the ``1/(eta + eps)`` metric (paper Algorithm 1).

Two parts:

* :func:`build_routing_tables` — a literal rendering of the paper's
  distance-vector pseudocode: every node initialises its table, then all
  nodes run N-1 synchronous UPDATE rounds against their neighbours'
  tables (step 2, the table exchange, is a no-op in-process exactly as the
  paper notes). It is the test oracle and the A1 ablation's baseline.
* :meth:`FlatGraph.tree` — the single-source tree every router uses
  (:func:`bellman_ford` and the link-state cache): Dijkstra over a CSR
  adjacency. All edge costs are positive, so it returns Algorithm 1's
  optimal costs; the test suite checks both agree. The tree gives each
  path and its end-to-end eta (:meth:`BellmanFordResult.eta_to`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import NoPathError, RoutingError, ValidationError
from repro.network.topology import LinkGraph
from repro.routing.metrics import DEFAULT_EPSILON, edge_cost
from repro.routing.table import RoutingTable

__all__ = [
    "bellman_ford",
    "BellmanFordResult",
    "FlatGraph",
    "build_routing_tables",
]


@dataclass(frozen=True, slots=True)
class BellmanFordResult:
    """Single-source shortest-path tree over a :class:`FlatGraph`.

    Attributes:
        source: tree root.
        flat_costs: best cost per node index (infinity if unreachable).
        flat_edges: index of each node's tree edge into the graph's CSR
            arrays (-1 for the source and unreachable nodes); the edge's
            tail is the node's predecessor.
        graph: the graph routed over (not compared).
    """

    source: str
    flat_costs: list[float]
    flat_edges: list[int]
    graph: "FlatGraph" = field(compare=False)

    @property
    def costs(self) -> dict[str, float]:
        """Best cost per destination, built on demand."""
        return dict(zip(self.graph.nodes, self.flat_costs))

    @property
    def predecessors(self) -> dict[str, str | None]:
        """Previous hop per destination (None for the source and
        unreachable nodes), built on demand."""
        nodes, tails = self.graph.nodes, self.graph._tails
        return {
            nodes[i]: (nodes[tails[e]] if e >= 0 else None)
            for i, e in enumerate(self.flat_edges)
        }

    def reachable(self, destination: str) -> bool:
        """Whether the tree holds a finite-cost route to ``destination``."""
        i = self.graph._index.get(destination)
        return i is not None and self.flat_costs[i] < math.inf

    def path_to(self, destination: str) -> list[str]:
        """Node sequence from the source to ``destination``.

        Raises:
            NoPathError: if the destination is unreachable.
        """
        graph = self.graph
        i = graph._index.get(destination)
        if i is None or self.flat_costs[i] == math.inf:
            raise NoPathError(self.source, destination)
        edges, tails, nodes = self.flat_edges, graph._tails, graph.nodes
        path = [nodes[i]]
        e = edges[i]
        while e >= 0:
            i = tails[e]
            path.append(nodes[i])
            e = edges[i]
        path.reverse()
        return path

    def eta_to(self, destination: str) -> float:
        """End-to-end transmissivity of :meth:`path_to`'s path: its link
        etas multiplied from the source outward, the left fold
        ``path_transmissivity(path_edges(...))`` runs, so the two agree
        bit for bit.

        Raises:
            NoPathError: if the destination is unreachable.
        """
        graph = self.graph
        i = graph._index.get(destination)
        if i is None or self.flat_costs[i] == math.inf:
            raise NoPathError(self.source, destination)
        edges, tails, etas = self.flat_edges, graph._tails, graph._etas
        hops = []
        e = edges[i]
        while e >= 0:
            hops.append(etas[e])
            e = edges[tails[e]]
        product = 1.0
        for eta in reversed(hops):
            product *= eta
        return product


class FlatGraph:
    """CSR rendering of a :data:`LinkGraph` for repeated trees.

    Nodes become integer indices; node ``u``'s out-edges are positions
    ``_offsets[u]:_offsets[u + 1]`` of the edge arrays ``_tails`` (``u``),
    ``_heads``, ``_etas`` and ``_costs`` (``1/(eta + eps)``), in the
    dict's neighbour order. The conversion — one :func:`edge_cost` per
    directed edge — is paid once per graph snapshot; :meth:`tree` and
    Yen's spur searches (:mod:`repro.routing.yen`) then route over it.
    :meth:`from_arrays` takes the edge list as arrays instead of a dict,
    for callers that hold link state in columns.
    """

    __slots__ = ("nodes", "_index", "_offsets", "_tails", "_heads", "_etas", "_costs")

    def __init__(self, graph: LinkGraph, epsilon: float = DEFAULT_EPSILON) -> None:
        self.nodes = list(graph)
        self._index = index = {name: i for i, name in enumerate(self.nodes)}
        self._offsets = [0]
        self._tails, self._heads, self._etas, self._costs = [], [], [], []
        for u, neighbors in enumerate(graph.values()):
            for v, eta in neighbors.items():
                self._tails.append(u)
                self._heads.append(index[v])
                self._etas.append(eta)
                self._costs.append(edge_cost(eta, epsilon))
            self._offsets.append(len(self._heads))

    @classmethod
    def from_arrays(
        cls,
        nodes: Sequence[str],
        tails: np.ndarray,
        heads: np.ndarray,
        etas: np.ndarray,
        epsilon: float = DEFAULT_EPSILON,
    ) -> "FlatGraph":
        """Build from directed edges ``nodes[tails[i]] -> nodes[heads[i]]``
        with transmissivity ``etas[i]``.

        ``tails`` must be nondecreasing; edges sharing a tail keep their
        given order as that node's neighbour order. Costs are
        :func:`edge_cost` vectorized, with the same checks: the same
        floats as the dict constructor for the same edge list.

        Raises:
            ValidationError: for arrays of unequal length, a node index
                outside ``[0, len(nodes))``, tails that decrease, an eta
                outside [0, 1] (or not finite) or a non-positive
                ``epsilon``.
        """
        n = len(nodes)
        tails, heads = np.asarray(tails), np.asarray(heads)
        etas = np.asarray(etas, dtype=float)
        if not tails.shape == heads.shape == etas.shape or tails.ndim != 1:
            raise ValidationError(
                "tails, heads and etas must be 1-D arrays of one length, got "
                f"shapes {tails.shape}, {heads.shape}, {etas.shape}"
            )
        if not (
            np.issubdtype(tails.dtype, np.integer)
            and np.issubdtype(heads.dtype, np.integer)
        ):
            raise ValidationError("tails and heads must be integer arrays")
        if (tails[1:] < tails[:-1]).any():
            raise ValidationError("tails must be nondecreasing")
        if tails.size and (
            min(tails[0], heads.min()) < 0 or max(tails[-1], heads.max()) >= n
        ):
            raise ValidationError(f"edge endpoint outside [0, {n})")
        bad = ~((etas >= 0.0) & (etas <= 1.0))
        if bad.any():
            raise ValidationError(
                f"transmissivity must be in [0, 1], got {etas[bad][0]}"
            )
        if epsilon <= 0.0:
            raise ValidationError(f"epsilon must be positive, got {epsilon}")
        flat = cls.__new__(cls)
        flat.nodes = list(nodes)
        flat._index = {name: i for i, name in enumerate(flat.nodes)}
        flat._offsets = np.searchsorted(tails, np.arange(n + 1)).tolist()
        flat._tails = tails.tolist()
        flat._heads = heads.tolist()
        flat._etas = etas.tolist()
        flat._costs = (1.0 / (etas + epsilon)).tolist()
        return flat

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def tree(self, source: str) -> BellmanFordResult:
        """Shortest-path tree rooted at ``source``, by Dijkstra.

        Heap entries are ``(cost, node index)``, and a node takes a new
        tree edge only on a strictly lower cost, so among equal-cost
        routes the first-popped predecessor wins.

        Raises:
            RoutingError: if ``source`` is not a node of the graph.
        """
        src = self._index.get(source)
        if src is None:
            raise RoutingError(f"source {source!r} is not in the graph")
        n = len(self.nodes)
        cost = [math.inf] * n
        pred = [-1] * n
        settled = [False] * n
        cost[src] = 0.0
        offsets, heads, costs = self._offsets, self._heads, self._costs
        heap = [(0.0, src)]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            cost_u, u = pop(heap)
            if settled[u]:
                continue
            settled[u] = True
            for e in range(offsets[u], offsets[u + 1]):
                v = heads[e]
                candidate = cost_u + costs[e]
                if candidate < cost[v]:
                    cost[v] = candidate
                    pred[v] = e
                    push(heap, (candidate, v))
        return BellmanFordResult(source, cost, pred, self)


def bellman_ford(
    graph: LinkGraph, source: str, epsilon: float = DEFAULT_EPSILON
) -> BellmanFordResult:
    """Single-source shortest-path tree over the ``1/(eta + eps)`` metric.

    Args:
        graph: usable-link adjacency ``{u: {v: eta}}``.
        source: start node; must be present in the graph.

    Keeps the paper's name; the tree is :meth:`FlatGraph.tree`'s
    Dijkstra, exact here because every edge cost is positive. Callers
    routing many sources over one graph snapshot should build a
    :class:`FlatGraph` once and call :meth:`FlatGraph.tree` instead.
    """
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
