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

A :class:`RoutingCSR` holds every edge a family of graphs draws from
(the link-state cache's channels), validated once; each member graph is
a gather of it.

Memoized routing state stays out of the cyclic garbage collector's
walks: a tree's ``flat_costs``/``flat_edges`` and a graph's ``_tails``/
``_etas`` are tuples of floats and ints. Such a tuple holds no
container, so the collector stops tracking it at its first pass, and
path walks index it at list speed (a NumPy scalar read costs ~5x that,
on every hop of every served request).
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
    "RoutingCSR",
    "build_routing_tables",
]


def _check_edges(n: int, tails: np.ndarray, heads: np.ndarray, epsilon: float) -> None:
    """The edge-list checks: integer endpoints inside ``[0, n)``, tails
    nondecreasing, ``epsilon`` positive."""
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
    if epsilon <= 0.0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")


def _check_etas(etas: np.ndarray) -> None:
    """Every transmissivity finite and in [0, 1] (a NaN makes ``min``
    and ``max`` NaN, which fails both comparisons)."""
    if etas.size and not (etas.min() >= 0.0 and etas.max() <= 1.0):
        bad = ~((etas >= 0.0) & (etas <= 1.0))
        raise ValidationError(f"transmissivity must be in [0, 1], got {etas[bad][0]}")


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
    flat_costs: tuple[float, ...]
    flat_edges: tuple[int, ...]
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
    ``_offsets[u]:_offsets[u + 1]`` of the edge sequences ``_tails``
    (``u``), ``_heads``, ``_etas`` and ``_costs`` (``1/(eta + eps)``),
    in the dict's neighbour order. :meth:`tree` and Yen's spur searches
    (:mod:`repro.routing.yen`) route over it. The sequences Dijkstra
    reads per edge (``_offsets``, ``_heads``, ``_costs``) are lists;
    ``_tails`` and ``_etas``, read only by path walks, are tuples the
    collector untracks (see the module notes).

    Three constructors: the dict graph (one :func:`edge_cost` per
    directed edge); :meth:`from_arrays`, for an edge list held in
    arrays, validated per call; and :meth:`RoutingCSR.graph`, which
    gathers a subset of a once-validated edge list and shares its node
    list and name index.
    """

    __slots__ = ("nodes", "_index", "_offsets", "_tails", "_heads", "_etas", "_costs")

    def __init__(self, graph: LinkGraph, epsilon: float = DEFAULT_EPSILON) -> None:
        self.nodes = list(graph)
        self._index = index = {name: i for i, name in enumerate(self.nodes)}
        self._offsets = [0]
        tails, self._heads, etas, self._costs = [], [], [], []
        for u, neighbors in enumerate(graph.values()):
            for v, eta in neighbors.items():
                tails.append(u)
                self._heads.append(index[v])
                etas.append(eta)
                self._costs.append(edge_cost(eta, epsilon))
            self._offsets.append(len(self._heads))
        self._tails, self._etas = tuple(tails), tuple(etas)

    @classmethod
    def _assemble(
        cls,
        nodes: list[str],
        index: dict[str, int],
        offsets: np.ndarray,
        tails: np.ndarray,
        heads: np.ndarray,
        etas: np.ndarray,
        epsilon: float,
    ) -> "FlatGraph":
        """A graph over checked arrays: costs are :func:`edge_cost`
        vectorized, the same floats as the dict constructor's."""
        flat = cls.__new__(cls)
        flat.nodes, flat._index = nodes, index
        flat._offsets = offsets.tolist()
        flat._tails = tuple(tails.tolist())
        flat._heads = heads.tolist()
        flat._etas = tuple(etas.tolist())
        flat._costs = (1.0 / (etas + epsilon)).tolist()
        return flat

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
        floats as the dict constructor for the same edge list. Every
        call validates its arrays; graphs drawn from one fixed edge list
        are cheaper as :meth:`RoutingCSR.graph` gathers.

        Raises:
            ValidationError: for arrays of unequal length, a node index
                outside ``[0, len(nodes))``, tails that decrease, an eta
                outside [0, 1] (or not finite) or a non-positive
                ``epsilon``.
        """
        nodes = list(nodes)
        tails, heads = np.asarray(tails), np.asarray(heads)
        etas = np.asarray(etas, dtype=float)
        if not tails.shape == heads.shape == etas.shape or tails.ndim != 1:
            raise ValidationError(
                "tails, heads and etas must be 1-D arrays of one length, got "
                f"shapes {tails.shape}, {heads.shape}, {etas.shape}"
            )
        _check_edges(len(nodes), tails, heads, epsilon)
        _check_etas(etas)
        return cls._assemble(
            nodes,
            {name: i for i, name in enumerate(nodes)},
            np.searchsorted(tails, np.arange(len(nodes) + 1)),
            tails,
            heads,
            etas,
            epsilon,
        )

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
        return BellmanFordResult(source, tuple(cost), tuple(pred), self)


class RoutingCSR:
    """Every edge a family of graphs draws from, as one CSR validated
    once; each member graph is a gather of it (:meth:`graph`).

    Edge ``c`` joins ``pairs[c]`` both ways. The directed edges are
    sorted by (tail node, ``c``), so a member's neighbour order is the
    order a dict graph built by inserting its edges in ``c`` order has.
    Construction runs :meth:`FlatGraph.from_arrays`' checks once: on
    the directed edge list (endpoints named in ``nodes``, tails
    nondecreasing, ``epsilon`` positive) and on ``etas``, every
    transmissivity a member may carry (any shape, edge ``c`` along the
    last axis). Members share the node list and the name index.

    Raises:
        ValidationError: for an endpoint not in ``nodes``, a
            transmissivity outside [0, 1] (or not finite) or a
            non-positive ``epsilon``.
    """

    __slots__ = ("nodes", "_index", "epsilon", "_offsets", "_tails", "_heads", "_position")

    def __init__(
        self,
        nodes: Sequence[str],
        pairs: Sequence[tuple[str, str]],
        etas: np.ndarray,
        epsilon: float = DEFAULT_EPSILON,
    ) -> None:
        self.nodes = list(nodes)
        self._index = index = {name: i for i, name in enumerate(self.nodes)}
        ends = np.array(
            [(index.get(a, -1), index.get(b, -1)) for a, b in pairs], dtype=np.intp
        ).reshape(-1, 2)
        # Directed edge c is a -> b, edge m + c is b -> a.
        tails, heads = ends.T.ravel(), ends[:, ::-1].T.ravel()
        order = np.lexsort((np.tile(np.arange(len(ends)), 2), tails))
        self._tails, self._heads = tails[order], heads[order]
        _check_edges(len(self.nodes), self._tails, self._heads, epsilon)
        _check_etas(np.asarray(etas, dtype=float))
        self.epsilon = epsilon
        self._offsets = np.searchsorted(self._tails, np.arange(len(self.nodes) + 1))
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        #: CSR position of edge c's a -> b (row 0) and b -> a (row 1).
        self._position = position.reshape(2, -1)

    def graph(self, edges: np.ndarray, etas: np.ndarray) -> FlatGraph:
        """The member graph holding ``edges`` (distinct edge indices)
        with transmissivities ``etas``, taken from the validated array.

        Gathers each edge's two CSR positions, sorts them (the static
        order) and bisects the static node offsets for the member's;
        equal to :meth:`FlatGraph.from_arrays` on the same directed
        edges, without re-validating them.
        """
        position = self._position[:, edges].ravel()
        order = position.argsort()
        position = position[order]
        return FlatGraph._assemble(
            self.nodes,
            self._index,
            np.searchsorted(position, self._offsets),
            self._tails[position],
            self._heads[position],
            np.concatenate((etas, etas))[order],
            self.epsilon,
        )


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
