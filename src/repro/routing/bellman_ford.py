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
  optimal costs; the test suite checks both agree. The tree keeps each
  node's tree edge and gives each path and its end-to-end eta
  (:meth:`BellmanFordResult.eta_to`); its costs are derived on demand.

A :class:`RoutingCSR` holds every edge a family of graphs draws from
(the link-state cache's channels), validated once; each member graph is
a gather of it. A member holds only the edges that change between its
siblings and shares an :class:`EdgeLayer` of the rest (the link state's
fiber and other non-ground-satellite columns), so memoizing thousands
of graphs stores the static layer once per distinct state.

Memoized routing state stays out of the cyclic garbage collector's
walks: a tree's ``flat_edges`` and the ``tails``/``etas`` of a graph and
its layer are tuples of floats and ints. Such a tuple holds no
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
    "EdgeLayer",
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

    The tree keeps what path walks read, each node's tree edge; costs
    and predecessors are derived from it on demand.

    Attributes:
        source: tree root.
        flat_edges: each node's tree edge, as an edge index of the graph
            (see :class:`FlatGraph`); -1 for the source and unreachable
            nodes. The edge's tail is the node's predecessor.
        graph: the graph routed over (not compared).
    """

    source: str
    flat_edges: tuple[int, ...]
    graph: "FlatGraph" = field(compare=False)

    @property
    def costs(self) -> dict[str, float]:
        """Best cost per destination (infinity if unreachable), built on
        demand: each tree path's edge costs added from the source
        outward. These are the additions :meth:`FlatGraph.tree` made, so
        the floats are the ones it compared, bit for bit."""
        graph, edges = self.graph, self.flat_edges
        tails, _, _, edge_costs = graph._edge_sequences()
        cost = [math.inf] * len(edges)
        cost[graph._index[self.source]] = 0.0
        for node in range(len(edges)):
            chain, i = [], node
            while cost[i] == math.inf and edges[i] >= 0:
                chain.append(i)
                i = tails[edges[i]]
            for i in reversed(chain):
                cost[i] = cost[tails[edges[i]]] + edge_costs[edges[i]]
        return dict(zip(graph.nodes, cost))

    @property
    def predecessors(self) -> dict[str, str | None]:
        """Previous hop per destination (None for the source and
        unreachable nodes), built on demand."""
        nodes, tails = self.graph.nodes, self.graph._edge_sequences()[0]
        return {
            nodes[i]: (nodes[tails[e]] if e >= 0 else None)
            for i, e in enumerate(self.flat_edges)
        }

    def reachable(self, destination: str) -> bool:
        """Whether the tree holds a route to ``destination``."""
        i = self.graph._index.get(destination)
        return i is not None and (self.flat_edges[i] >= 0 or destination == self.source)

    def path_to(self, destination: str) -> list[str]:
        """Node sequence from the source to ``destination``.

        Raises:
            NoPathError: if the destination is unreachable.
        """
        graph, edges = self.graph, self.flat_edges
        i = graph._index.get(destination)
        if i is None or (edges[i] < 0 and destination != self.source):
            raise NoPathError(self.source, destination)
        n_shared, shared_tails = graph._n_shared, graph._shared.tails
        tails, nodes = graph._tails, graph.nodes
        path = [nodes[i]]
        e = edges[i]
        while e >= 0:
            i = shared_tails[e] if e < n_shared else tails[e - n_shared]
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
        graph, edges = self.graph, self.flat_edges
        i = graph._index.get(destination)
        if i is None or (edges[i] < 0 and destination != self.source):
            raise NoPathError(self.source, destination)
        n_shared, shared = graph._n_shared, graph._shared
        shared_tails, shared_etas = shared.tails, shared.etas
        tails, etas = graph._tails, graph._etas
        hops = []
        e = edges[i]
        while e >= 0:
            if e < n_shared:
                hops.append(shared_etas[e])
                e = edges[shared_tails[e]]
            else:
                e -= n_shared
                hops.append(etas[e])
                e = edges[tails[e]]
        product = 1.0
        for eta in reversed(hops):
            product *= eta
        return product


def _sequences(
    offsets: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    etas: np.ndarray,
    epsilon: float,
) -> tuple[list[int], tuple[int, ...], list[int], tuple[float, ...], list[float]]:
    """CSR sequences of checked edge arrays: ``(offsets, tails, heads,
    etas, costs)``, costs :func:`edge_cost` vectorized (the same floats
    as the dict constructor's). The sequences Dijkstra reads per edge are
    lists; ``tails`` and ``etas``, read only by path walks, are tuples
    the collector untracks (see the module notes)."""
    return (
        offsets.tolist(),
        tuple(tails.tolist()),
        heads.tolist(),
        tuple(etas.tolist()),
        (1.0 / (etas + epsilon)).tolist(),
    )


class EdgeLayer:
    """Directed edges over a node list, in CSR form: node ``u``'s edges
    are positions ``offsets[u]:offsets[u + 1]`` of ``tails`` (``u``),
    ``heads``, ``etas`` and ``costs`` (``1/(eta + eps)``).

    The layer a :class:`FlatGraph` shares with others: the link state's
    graphs share the edges of their columns before the first
    ground-satellite column (:meth:`RoutingCSR.layer`). Built once and
    read by every tree, it also holds ``adjacency``: per node, a tuple
    of ``(head, cost, edge index)`` per edge, in CSR order, which
    Dijkstra iterates instead of indexing three lists per edge.
    """

    __slots__ = ("offsets", "tails", "heads", "etas", "costs", "adjacency")

    def __init__(
        self,
        offsets: list[int],
        tails: tuple[int, ...],
        heads: list[int],
        etas: tuple[float, ...],
        costs: list[float],
    ) -> None:
        self.offsets, self.tails, self.heads = offsets, tails, heads
        self.etas, self.costs = etas, costs
        self.adjacency = tuple(
            tuple((heads[e], costs[e], e) for e in range(offsets[u], offsets[u + 1]))
            for u in range(len(offsets) - 1)
        )

    @classmethod
    def empty(cls, n_nodes: int) -> "EdgeLayer":
        """The layer of no edges over ``n_nodes`` nodes."""
        return cls([0] * (n_nodes + 1), (), [], (), [])


class FlatGraph:
    """CSR rendering of a :data:`LinkGraph` for repeated trees.

    Nodes become integer indices. A graph's directed edges are a shared
    :class:`EdgeLayer` (``_shared``) and the graph's own edges, held in
    the same five sequences on the graph (``_offsets``, ``_tails``,
    ``_heads``, ``_etas``, ``_costs``). Node ``u``'s neighbours are its
    shared edges, then its own, and together they are in the dict's
    neighbour order. An edge index ``e`` names shared edge ``e`` below
    ``_n_shared`` and own edge ``e - _n_shared`` from there on.
    :meth:`tree` and Yen's spur searches (:mod:`repro.routing.yen`)
    route over both ranges of each node.

    Three constructors: the dict graph (one :func:`edge_cost` per
    directed edge); :meth:`from_arrays`, for an edge list held in
    arrays, validated per call; and :meth:`RoutingCSR.graph`, which
    gathers a subset of a once-validated edge list over a shared layer
    and shares its node list and name index. The first two hold every
    edge as their own, over an empty shared layer.
    """

    __slots__ = (
        "nodes",
        "_index",
        "_shared",
        "_n_shared",
        "_offsets",
        "_tails",
        "_heads",
        "_etas",
        "_costs",
    )

    def __init__(self, graph: LinkGraph, epsilon: float = DEFAULT_EPSILON) -> None:
        self.nodes = list(graph)
        self._index = index = {name: i for i, name in enumerate(self.nodes)}
        self._shared, self._n_shared = EdgeLayer.empty(len(self.nodes)), 0
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
        sequences: tuple,
        shared: EdgeLayer | None = None,
    ) -> "FlatGraph":
        """A graph of own edge ``sequences`` (see :func:`_sequences`) over
        ``shared`` (default: no shared edges)."""
        flat = cls.__new__(cls)
        flat.nodes, flat._index = nodes, index
        flat._offsets, flat._tails, flat._heads, flat._etas, flat._costs = sequences
        flat._shared = EdgeLayer.empty(len(nodes)) if shared is None else shared
        flat._n_shared = len(flat._shared.heads)
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
        offsets = np.searchsorted(tails, np.arange(len(nodes) + 1))
        return cls._assemble(
            nodes,
            {name: i for i, name in enumerate(nodes)},
            _sequences(offsets, tails, heads, etas, epsilon),
        )

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def _edge_sequences(
        self,
    ) -> tuple[tuple[int, ...], list[int], tuple[float, ...], list[float]]:
        """``(tails, heads, etas, costs)`` indexed by edge index: the
        shared layer's sequences followed by the graph's own."""
        shared = self._shared
        return (
            shared.tails + self._tails,
            shared.heads + self._heads,
            shared.etas + self._etas,
            shared.costs + self._costs,
        )

    def tree(self, source: str) -> BellmanFordResult:
        """Shortest-path tree rooted at ``source``, by Dijkstra.

        Heap entries are ``(cost, node index)``, a popped node relaxes
        its shared edges and then its own, and a node takes a new tree
        edge only on a strictly lower cost, so among equal-cost routes
        the first-popped predecessor wins.

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
        shared, n_shared = self._shared.adjacency, self._n_shared
        offsets, heads, costs = self._offsets, self._heads, self._costs
        heap = [(0.0, src)]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            cost_u, u = pop(heap)
            if settled[u]:
                continue
            settled[u] = True
            for v, cost_e, e in shared[u]:
                candidate = cost_u + cost_e
                if candidate < cost[v]:
                    cost[v] = candidate
                    pred[v] = e
                    push(heap, (candidate, v))
            for e in range(offsets[u], offsets[u + 1]):
                v = heads[e]
                candidate = cost_u + costs[e]
                if candidate < cost[v]:
                    cost[v] = candidate
                    pred[v] = n_shared + e
                    push(heap, (candidate, v))
        return BellmanFordResult(source, tuple(pred), self)


class RoutingCSR:
    """Every edge a family of graphs draws from, as one CSR validated
    once; each member graph is a gather of it (:meth:`graph`), over a
    shared layer that is a gather too (:meth:`layer`).

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

    def _gather(self, edges: np.ndarray, etas: np.ndarray) -> tuple:
        """CSR sequences (:func:`_sequences`) of ``edges`` (distinct edge
        indices) with transmissivities ``etas``, taken from the validated
        array: each edge's two CSR positions, sorted (the static order),
        and the static node offsets bisected for the member's."""
        position = self._position[:, edges].ravel()
        order = position.argsort()
        position = position[order]
        return _sequences(
            np.searchsorted(position, self._offsets),
            self._tails[position],
            self._heads[position],
            np.concatenate((etas, etas))[order],
            self.epsilon,
        )

    def layer(self, edges: np.ndarray, etas: np.ndarray) -> EdgeLayer:
        """The :class:`EdgeLayer` of ``edges`` with transmissivities
        ``etas``, for :meth:`graph`'s ``shared``."""
        return EdgeLayer(*self._gather(edges, etas))

    def graph(self, edges: np.ndarray, etas: np.ndarray, shared: EdgeLayer) -> FlatGraph:
        """The member graph holding ``edges`` with transmissivities
        ``etas`` as its own, over ``shared`` (a :meth:`layer`).

        Every edge of ``shared`` must precede every edge in ``edges``
        (lower edge indices), so that each node's shared-then-own
        neighbours keep the static order. The result then routes like
        :meth:`FlatGraph.from_arrays` on the union's directed edges,
        without re-validating them.
        """
        return FlatGraph._assemble(self.nodes, self._index, self._gather(edges, etas), shared)


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
