"""Yen's k-shortest simple paths on the ``1/(eta + eps)`` metric.

The multipath strategy layer (:mod:`repro.routing.strategies`) needs the
best *k* loop-free alternatives between two ground nodes, in
nondecreasing cost order, so it can reserve memory at intermediate
platforms and distill the resulting pairs. Yen's algorithm provides
exactly that: the best path comes from a single-source run, and every
further path is the cheapest "spur" deviation off an already-accepted
path with the deviating edges masked out.

The spur solver is Dijkstra over the CSR arrays of a
:class:`~repro.routing.bellman_ford.FlatGraph`, the strict tree's
graph type (the link-state cache memoizes the relaxed one per edge
set): each popped node's shared-layer edges, then its own, as the tree
reads them. Banned prefix nodes start out settled, and deviating edges
are skipped at the spur node. It follows the textbook Dijkstra kept as a
test oracle (``tests/routing/dijkstra.py``) step for step — neighbour
order, strict-``<`` relaxations, heap ties by node name (where the
strict tree ties by node index) — and stops when the
destination is popped, whose predecessor chain is final by then.
Candidate spurs are ordered by ``(cost, path)``, node names breaking
float ties, so the enumeration order is a pure function of the graph.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator, Sequence, Set

from repro.errors import RoutingError
from repro.network.topology import LinkGraph
from repro.routing.bellman_ford import FlatGraph
from repro.routing.metrics import DEFAULT_EPSILON

__all__ = ["yen_paths", "yen_routes"]


def _spur_edges(
    flat: FlatGraph,
    tails: Sequence[int],
    source: int,
    destination: int,
    banned_nodes: Sequence[int] = (),
    banned_next: Set[int] = frozenset(),
) -> list[int] | None:
    """Dijkstra ``source -> destination`` over ``flat`` avoiding
    ``banned_nodes`` and the edges ``source -> v`` for ``v`` in
    ``banned_next`` (node indices); the path's edge indices in order, or
    ``None`` when the destination is unreachable. ``tails`` is the
    graph's tail per edge index."""
    shared, n_shared = flat._shared.adjacency, flat._n_shared
    offsets, heads, costs, nodes = flat._offsets, flat._heads, flat._costs, flat.nodes
    settled = bytearray(len(nodes))
    for i in banned_nodes:
        settled[i] = 1
    best = [math.inf] * len(nodes)
    best[source] = 0.0
    pred = [-1] * len(nodes)
    # (cost, node name, node index): equal costs pop in name order.
    heap = [(0.0, nodes[source], source)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        cost_u, _, u = pop(heap)
        if settled[u]:
            continue
        if u == destination:
            edges = []
            while pred[u] >= 0:
                edges.append(pred[u])
                u = tails[pred[u]]
            edges.reverse()
            return edges
        settled[u] = 1
        for v, cost_e, e in shared[u]:
            if settled[v] or (u == source and v in banned_next):
                continue
            candidate = cost_u + cost_e
            if candidate < best[v]:
                best[v] = candidate
                pred[v] = e
                push(heap, (candidate, nodes[v], v))
        for e in range(offsets[u], offsets[u + 1]):
            v = heads[e]
            if settled[v] or (u == source and v in banned_next):
                continue
            candidate = cost_u + costs[e]
            if candidate < best[v]:
                best[v] = candidate
                pred[v] = n_shared + e
                push(heap, (candidate, nodes[v], v))
    return None


def yen_routes(
    flat: FlatGraph, source: str, destination: str
) -> Iterator[tuple[list[str], float, float]]:
    """Lazily yield ``(path, cost, eta)`` over ``flat`` in nondecreasing
    cost order: ``cost`` as :func:`~repro.routing.metrics.path_cost`
    sums it and ``eta`` as :func:`~repro.routing.metrics.path_transmissivity`
    folds it (left to right from 1.0), bit for bit. Paths are simple (loop-free): spur searches
    mask every root-prefix node. The generator ends when the simple
    paths are exhausted.

    Raises:
        RoutingError: if either endpoint is not in the graph.
    """
    for end, name in ((source, "source"), (destination, "destination")):
        if end not in flat:
            raise RoutingError(f"{name} {end!r} is not in the graph")
    nodes = flat.nodes
    tails, heads, etas, costs = flat._edge_sequences()
    src, dst = flat._index[source], flat._index[destination]
    # Min-heap of (cost, path names, node indices, edge indices); the
    # name tuple both deduplicates and breaks cost ties deterministically
    # (and is unique, so the index lists never compare).
    frontier: list[tuple[float, tuple[str, ...], list[int], list[int]]] = []
    seen: set[tuple[str, ...]] = set()

    def offer(path: list[int], edges: list[int]) -> None:
        names = tuple(nodes[i] for i in path)
        if names not in seen:
            seen.add(names)
            heapq.heappush(frontier, (sum(map(costs.__getitem__, edges)), names, path, edges))

    first = _spur_edges(flat, tails, src, dst)
    if first is not None:
        offer([src] + [heads[e] for e in first], first)
    accepted: list[list[int]] = []
    while frontier:
        cost, names, prev, prev_edges = heapq.heappop(frontier)
        accepted.append(prev)
        yield list(names), cost, math.prod(map(etas.__getitem__, prev_edges), start=1.0)
        for i in range(len(prev) - 1):
            root = prev[: i + 1]
            banned_next = {p[i + 1] for p in accepted if len(p) > i + 1 and p[: i + 1] == root}
            spur = _spur_edges(flat, tails, prev[i], dst, root[:-1], banned_next)
            if spur is not None:
                offer(root + [heads[e] for e in spur], prev_edges[:i] + spur)


def yen_paths(
    graph: LinkGraph,
    source: str,
    destination: str,
    epsilon: float = DEFAULT_EPSILON,
) -> Iterator[tuple[list[str], float]]:
    """Lazily yield ``(path, cost)`` in nondecreasing cost order:
    :func:`yen_routes` over ``FlatGraph(graph, epsilon)``.

    Raises:
        RoutingError: if either endpoint is not in the graph.
        ValidationError: if any link eta lies outside [0, 1].
    """
    for path, cost, _ in yen_routes(FlatGraph(graph, epsilon), source, destination):
        yield path, cost
