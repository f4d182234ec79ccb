"""Yen's k-shortest simple paths on the ``1/(eta + eps)`` metric.

The multipath strategy layer (:mod:`repro.routing.strategies`) needs the
best *k* loop-free alternatives between two ground nodes, in
nondecreasing cost order, so it can reserve memory at intermediate
platforms and distill the resulting pairs. Yen's algorithm provides
exactly that: the best path comes from a single-source run, and every
further path is the cheapest "spur" deviation off an already-accepted
path with the deviating edges masked out.

The spur-path inner solver is Dijkstra over a cost adjacency built once
per :func:`yen_paths` call (each eta validated and turned into its
``1/(eta + eps)`` cost there, once); banned prefix nodes and deviating
edges are skipped inline instead of materialising a masked graph. It
follows the textbook dict-based Dijkstra kept as a test oracle
(``tests/routing/dijkstra.py``) step for step — neighbour order,
strict-``<`` relaxations, ``(cost, node)`` heap ties — and stops when
the destination is popped, whose predecessor chain is final by then, so
every spur path is the one that oracle would return. All edge costs on
this metric are positive, so Dijkstra is exact here (the shared-metric
equivalence with Algorithm 1 is pinned in ``tests/routing/``). The
strict router's tree (:meth:`repro.routing.bellman_ford.FlatGraph.tree`)
is also Dijkstra, but over node indices: its heap ties break by index,
these by node name.

Determinism: equal-cost paths from one Dijkstra run resolve by heap pop
order (the first-popped predecessor wins), and candidate spurs are
ordered by ``(cost, path)`` — node names break float ties — so the
enumeration order is a pure function of the graph, independent of dict
iteration or hash randomisation.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Set

from repro.errors import RoutingError
from repro.network.topology import LinkGraph
from repro.routing.metrics import DEFAULT_EPSILON, edge_cost

__all__ = ["k_shortest_paths", "yen_paths"]

#: Per-node ``{neighbour: 1/(eta + eps)}`` in the link graph's order.
CostGraph = dict[str, dict[str, float]]


def _spur_path(
    costs: CostGraph,
    source: str,
    destination: str,
    banned_nodes: Set[str] = frozenset(),
    banned_next: Set[str] = frozenset(),
) -> list[str] | None:
    """Dijkstra ``source -> destination`` avoiding ``banned_nodes`` and
    the edges ``source -> v`` for ``v`` in ``banned_next``; ``None`` when
    the destination is unreachable."""
    best: dict[str, float] = {source: 0.0}
    predecessors: dict[str, str] = {}
    heap: list[tuple[float, str]] = [(0.0, source)]
    # Banned nodes behave as already settled: never relaxed, never popped.
    settled = set(banned_nodes)
    inf = float("inf")
    while heap:
        cost_u, u = heapq.heappop(heap)
        if u in settled:
            continue
        if u == destination:
            path = [u]
            while u != source:
                u = predecessors[u]
                path.append(u)
            path.reverse()
            return path
        settled.add(u)
        for v, w in costs[u].items():
            if v in settled or (u == source and v in banned_next):
                continue
            candidate = cost_u + w
            if candidate < best.get(v, inf):
                best[v] = candidate
                predecessors[v] = u
                heapq.heappush(heap, (candidate, v))
    return None


def _path_cost(costs: CostGraph, path: list[str] | tuple[str, ...]) -> float:
    """Left-to-right sum of edge costs (the value ``path_cost`` gives)."""
    return sum(costs[u][v] for u, v in zip(path, path[1:]))


def yen_paths(
    graph: LinkGraph,
    source: str,
    destination: str,
    epsilon: float = DEFAULT_EPSILON,
) -> Iterator[tuple[list[str], float]]:
    """Lazily yield ``(path, cost)`` in nondecreasing cost order.

    Paths are simple (loop-free) by construction: spur computations mask
    every root-prefix node, so a spur can never revisit the prefix. The
    generator terminates when the simple paths are exhausted.

    Raises:
        RoutingError: if either endpoint is not in the graph.
        ValidationError: if any link eta lies outside [0, 1].
    """
    if source not in graph:
        raise RoutingError(f"source {source!r} is not in the graph")
    if destination not in graph:
        raise RoutingError(f"destination {destination!r} is not in the graph")
    costs: CostGraph = {
        u: {v: edge_cost(eta, epsilon) for v, eta in neighbors.items()}
        for u, neighbors in graph.items()
    }
    first = _spur_path(costs, source, destination)
    if first is None:
        return
    accepted: list[list[str]] = [first]
    seen: set[tuple[str, ...]] = {tuple(first)}
    yield first, _path_cost(costs, first)
    # Min-heap of (cost, path-tuple) candidate deviations; the path
    # tuple both deduplicates and breaks cost ties deterministically.
    frontier: list[tuple[float, tuple[str, ...]]] = []
    while True:
        prev = accepted[-1]
        for i in range(len(prev) - 1):
            root = prev[: i + 1]
            banned_next = {
                p[i + 1] for p in accepted if len(p) > i + 1 and p[: i + 1] == root
            }
            spur = _spur_path(costs, prev[i], destination, set(root[:-1]), banned_next)
            if spur is None:
                continue
            candidate = tuple(root[:-1] + spur)
            if candidate in seen:
                continue
            seen.add(candidate)
            heapq.heappush(frontier, (_path_cost(costs, candidate), candidate))
        if not frontier:
            return
        cost, best = heapq.heappop(frontier)
        accepted.append(list(best))
        yield list(best), cost


def k_shortest_paths(
    graph: LinkGraph,
    source: str,
    destination: str,
    k: int,
    epsilon: float = DEFAULT_EPSILON,
) -> list[tuple[list[str], float]]:
    """The best ``k`` simple paths as ``(path, cost)``, cost-ordered.

    Fewer than ``k`` entries are returned when the graph holds fewer
    simple paths; an empty list means the endpoints are disconnected.

    Raises:
        RoutingError: if ``k < 1`` or an endpoint is missing.
    """
    if k < 1:
        raise RoutingError(f"k must be >= 1, got {k}")
    out: list[tuple[list[str], float]] = []
    for path, cost in yen_paths(graph, source, destination, epsilon):
        out.append((path, cost))
        if len(out) == k:
            break
    return out
