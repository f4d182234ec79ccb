"""Strategy-layer contracts: config validation, lazy path install and
Yen's order on graphs with tied etas.

* ``StrategyConfig`` rejects every knob value that would otherwise fail
  silently (NaN floors compare false) or only mid-stream (a negative
  decoherence window raises inside the first rescue).
* ``KShortestStrategy.candidates`` enumerates only the requested pair,
  at most once per epoch; an epoch advance enumerates nothing.
* ``yen_paths`` on tied etas: the paths and costs are the brute-force
  ranking's, and the ``(path, cost)`` sequence, costs bit-equal, is the
  one a reference Yen over materialised masked graphs with the baseline
  Dijkstra produces — the CSR spur solver breaks ties the same way
  (by node name, through the graph's name rank), so rescue candidates
  (and hence served outcomes) cannot move. Equal-cost paths do *not* come out
  sorted by name: one Dijkstra run keeps the first-popped predecessor.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoPathError, ValidationError
from repro.routing.metrics import edge_cost, path_cost, path_edges
from repro.routing.strategies import CandidatePath, KShortestStrategy, StrategyConfig
from repro.routing.yen import yen_paths
from tests.routing.dijkstra import dijkstra_path

# --- config validation ------------------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [
        ("fidelity_floor", float("nan")),
        ("fidelity_floor", 1.5),
        ("fidelity_floor", 0.0),
        ("decoherence_window_s", -1.0),
        ("decoherence_window_s", 0.0),
        ("decoherence_window_s", float("inf")),
        ("swap_latency_s", float("nan")),
        ("swap_latency_s", float("inf")),
        ("k", 2.5),
        ("k", True),
        ("memory_slots", 4.0),
        ("max_rounds", 1.5),
        ("scan_limit", 8.5),
    ],
)
def test_strategy_config_rejects_bad_knobs(field, value):
    with pytest.raises(ValidationError, match=field):
        StrategyConfig(router="k-shortest", **{field: value})


def test_strategy_config_accepts_boundary_values():
    StrategyConfig(
        router="k-shortest",
        k=1,
        memory_slots=0,
        fidelity_floor=1.0,
        decoherence_window_s=None,
        swap_latency_s=0.0,
        scan_limit=1,
    )


# --- lazy path install --------------------------------------------------------


class Spy:
    """``enumerate_pair`` stand-in that records every call."""

    def __init__(self):
        self.calls = []

    def __call__(self, pair):
        self.calls.append(pair)
        return (CandidatePath(path=(pair[0], "sat", pair[1]), eta=0.5, interiors=("sat",)),)


def test_candidates_enumerate_lazily_once_per_epoch():
    strategy = KShortestStrategy(StrategyConfig(router="k-shortest", k=2))
    spy = Spy()
    ab, cd = ("a", "b"), ("c", "d")

    first = strategy.candidates(ab, "e0", spy)
    assert strategy.candidates(ab, "e0", spy) is first
    assert spy.calls == [ab]  # a repeat within the epoch costs nothing

    strategy.candidates(cd, "e0", spy)
    assert spy.calls == [ab, cd]

    strategy.table.advance("e1")  # an epoch advance enumerates nothing
    assert spy.calls == [ab, cd]
    assert len(strategy.table) == 0

    strategy.candidates(cd, "e1", spy)  # only the requested pair
    strategy.candidates(cd, "e1", spy)
    assert spy.calls == [ab, cd, cd]
    assert len(strategy.table) == 1

    strategy.candidates(ab, "e2", spy)
    assert spy.calls == [ab, cd, cd, ab]


# --- Yen on tied etas ----------------------------------------------------------

TIED_ETAS = (0.25, 0.5, 0.8, 1.0)


@st.composite
def tied_graphs(draw):
    """Undirected graphs on 2..6 nodes whose etas come from four values,
    inserted in a drawn node order, so equal-cost paths are common."""
    n = draw(st.integers(min_value=2, max_value=6))
    nodes = draw(st.permutations([f"n{i}" for i in range(n)]))
    graph = {node: {} for node in nodes}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if draw(st.booleans()):
                eta = draw(st.sampled_from(TIED_ETAS))
                graph[a][b] = eta
                graph[b][a] = eta
    return graph


def brute_force_ranking(graph, source, destination):
    """Every simple path as ``(cost, path)``, sorted."""
    out = []
    middle = [n for n in graph if n not in (source, destination)]
    for r in range(len(middle) + 1):
        for mid in itertools.permutations(middle, r):
            path = (source, *mid, destination)
            if all(b in graph[a] for a, b in zip(path, path[1:])):
                out.append((path_cost(path_edges(graph, path)), path))
    return sorted(out)


def reference_yen(graph, source, destination):
    """Textbook Yen: spur Dijkstra runs over copied, masked graphs.
    Returns ``(path, cost)`` pairs, each cost ``path_cost`` of the
    path's etas."""

    def ranked(path):
        return list(path), path_cost(path_edges(graph, path))

    try:
        first, _ = dijkstra_path(graph, source, destination)
    except NoPathError:
        return []
    accepted, seen, frontier = [first], {tuple(first)}, []
    while True:
        prev = accepted[-1]
        for i in range(len(prev) - 1):
            root = prev[: i + 1]
            banned = set(root[:-1])
            cut = {p[i + 1] for p in accepted if p[: i + 1] == root and len(p) > i + 1}
            masked = {
                u: {
                    v: eta
                    for v, eta in nbrs.items()
                    if v not in banned and not (u == prev[i] and v in cut)
                }
                for u, nbrs in graph.items()
                if u not in banned
            }
            try:
                spur, _ = dijkstra_path(masked, prev[i], destination)
            except NoPathError:
                continue
            candidate = tuple(root[:-1] + spur)
            if candidate not in seen:
                seen.add(candidate)
                frontier.append((path_cost(path_edges(graph, candidate)), candidate))
        if not frontier:
            return [ranked(path) for path in accepted]
        frontier.sort()
        accepted.append(list(frontier.pop(0)[1]))


@settings(max_examples=200, deadline=None)
@given(graph=tied_graphs())
def test_yen_order_on_tied_etas(graph):
    got = list(yen_paths(graph, "n0", "n1"))
    # Every simple path once, each at exactly its brute-force cost ...
    assert sorted((cost, tuple(p)) for p, cost in got) == brute_force_ranking(
        graph, "n0", "n1"
    )
    # ... in cost order up to summation rounding: a spur's cost is
    # minimised from the spur node, the ranking sums from the source ...
    for (_, c1), (_, c2) in zip(got, got[1:]):
        assert c1 <= c2 * (1.0 + 1e-12)
    # ... and equal costs resolve exactly as the reference Yen does, with
    # bit-equal costs.
    assert got == reference_yen(graph, "n0", "n1")


def test_equal_cost_paths_resolve_by_dijkstra_pop_order():
    """Two equal-cost paths: the spur solver keeps the first-popped
    predecessor (``y``, the cheaper prefix), not the smaller name."""
    graph = {
        "n0": {"x": 0.5, "y": 0.8},
        "x": {"n0": 0.5, "n1": 0.8},
        "y": {"n0": 0.8, "n1": 0.5},
        "n1": {"x": 0.8, "y": 0.5},
    }
    (p1, c1), (p2, c2) = yen_paths(graph, "n0", "n1")
    assert c1 == c2 == edge_cost(0.5) + edge_cost(0.8)
    assert (p1, p2) == (["n0", "y", "n1"], ["n0", "x", "n1"])


def test_yen_rejects_an_out_of_range_eta():
    graph = {"a": {"b": 0.9}, "b": {"a": 0.9, "c": 1.5}, "c": {"b": 1.5}}
    with pytest.raises(ValidationError):
        next(yen_paths(graph, "a", "b"))
