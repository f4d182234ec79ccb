"""Property tests for the multipath strategy layer.

Three components are pinned against independent oracles:

* :func:`~repro.routing.yen.yen_paths` against brute-force simple-path
  enumeration on random graphs — every yielded path is simple, costs are
  non-decreasing, and the multiset of costs matches the brute-force
  ranking exactly (ties may reorder paths, never costs).
* :class:`~repro.routing.memory.MemoryPool` under random reservation /
  release / expiry streams — occupancy never goes negative or exceeds
  capacity, and decoherence expiry is monotone in time.
* :func:`~repro.routing.strategies.distill_step` against the
  density-matrix DEJMPS oracle on Werner-twirled amplitude-damped
  pairs — the closed form the serving hot path uses is the physics,
  not an approximation of it.

The Yen inner solver is Dijkstra; the shared-metric leg checks its
first-ranked path realises exactly the Bellman–Ford optimum the strict
router would have picked.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.network.protocols import (
    dejmps_purification,
    distribute_entanglement,
    generate_bell_pair,
    werner_twirl,
)
from repro.routing.bellman_ford import bellman_ford
from repro.routing.memory import MemoryPool
from repro.routing.metrics import edge_cost, path_edges
from repro.routing.strategies import distill_step, projection_fidelity
from repro.routing.yen import yen_paths
from tests.routing.graphtools import k_shortest_paths


@st.composite
def graphs(draw):
    """Random undirected graphs with eta-weighted edges on 2..6 nodes."""
    n = draw(st.integers(min_value=2, max_value=6))
    nodes = [f"n{i}" for i in range(n)]
    graph = {node: {} for node in nodes}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if draw(st.booleans()):
                eta = draw(st.floats(min_value=0.01, max_value=1.0))
                graph[a][b] = eta
                graph[b][a] = eta
    return graph


def brute_force_simple_paths(graph, source, destination):
    """Every simple source->destination path with its additive cost."""
    out = []
    nodes = [n for n in graph if n not in (source, destination)]
    for r in range(len(nodes) + 1):
        for mid in itertools.permutations(nodes, r):
            path = [source, *mid, destination]
            if all(b in graph[a] for a, b in zip(path, path[1:])):
                cost = sum(edge_cost(eta) for eta in path_edges(graph, path))
                out.append((cost, tuple(path)))
    out.sort()
    return out


@settings(max_examples=120, deadline=None)
@given(graph=graphs())
def test_yen_matches_brute_force_enumeration(graph):
    """Simple, loop-free, cost-ordered, and complete against brute force."""
    expected = brute_force_simple_paths(graph, "n0", "n1")
    got = list(yen_paths(graph, "n0", "n1"))
    assert len(got) == len(expected)
    prev_cost = -math.inf
    seen = set()
    for (path, cost), (exp_cost, _) in zip(got, expected):
        assert len(set(path)) == len(path), f"loop in {path}"
        assert path[0] == "n0" and path[-1] == "n1"
        assert all(b in graph[a] for a, b in zip(path, path[1:]))
        assert cost >= prev_cost
        assert cost == pytest.approx(exp_cost, rel=1e-9, abs=1e-12)
        prev_cost = cost
        seen.add(tuple(path))
    assert seen == {p for _, p in expected}


@settings(max_examples=80, deadline=None)
@given(graph=graphs(), k=st.integers(min_value=1, max_value=6))
def test_k_shortest_is_a_prefix_of_the_full_ranking(graph, k):
    full = list(yen_paths(graph, "n0", "n1"))
    top = k_shortest_paths(graph, "n0", "n1", k)
    assert len(top) == min(k, len(full))
    for (path, cost), (f_path, f_cost) in zip(top, full):
        assert cost == f_cost
        assert path == f_path


@settings(max_examples=100, deadline=None)
@given(graph=graphs())
def test_yen_first_path_is_the_bellman_ford_optimum(graph):
    """Shared-metric equivalence: the Dijkstra spur solver and the strict
    router's Bellman-Ford minimise the same 1/(eta+eps) cost."""
    bf = bellman_ford(graph, "n0")
    first = next(iter(yen_paths(graph, "n0", "n1")), None)
    if not bf.reachable("n1"):
        assert first is None
        return
    assert first is not None
    path, cost = first
    assert cost == pytest.approx(bf.costs["n1"], rel=1e-9, abs=1e-12)


def test_yen_rejects_missing_endpoints():
    graph = {"a": {"b": 0.9}, "b": {"a": 0.9}}
    with pytest.raises(RoutingError):
        list(yen_paths(graph, "a", "zz"))
    with pytest.raises(RoutingError):
        list(yen_paths(graph, "zz", "a"))


# --- entanglement-memory accounting -------------------------------------


@st.composite
def reservation_streams(draw):
    """A time-ordered stream of reserve / release steps over 4 nodes."""
    n_ops = draw(st.integers(min_value=1, max_value=25))
    ops, t = [], 0.0
    for _ in range(n_ops):
        t += draw(st.floats(min_value=0.0, max_value=0.8))
        if draw(st.booleans()):
            nodes = draw(
                st.lists(
                    st.sampled_from(["r0", "r1", "r2", "r3"]),
                    min_size=1,
                    max_size=3,
                )
            )
            ops.append(("reserve", t, tuple(nodes)))
        else:
            ops.append(("release", t, draw(st.integers(min_value=0, max_value=30))))
    return ops


@settings(max_examples=150, deadline=None)
@given(
    ops=reservation_streams(),
    capacity=st.integers(min_value=0, max_value=6),
    window=st.one_of(st.none(), st.floats(min_value=0.1, max_value=2.0)),
)
def test_memory_pool_accounting_never_goes_negative(ops, capacity, window):
    pool = MemoryPool(capacity, window_s=window)
    live = []
    for op, t, arg in ops:
        if op == "reserve":
            res = pool.try_reserve(arg, t, slots_per_node=2)
            if res is not None:
                live.append(res)
                # Atomicity: every node of the accepted reservation is
                # charged 2 slots regardless of duplicates in the path.
                for node in set(arg):
                    assert pool.in_use(node, t) >= 2
        elif live:
            res = live.pop(arg % len(live))
            alive = pool.alive(res, t)
            released = pool.release(res)
            # An expired reservation may already have been swept; a live
            # one must release exactly once (idempotent afterwards).
            if alive:
                assert released is True
            assert pool.release(res) is False
        for node in ("r0", "r1", "r2", "r3"):
            used = pool.in_use(node, t)
            free = pool.available(node, t)
            assert 0 <= used <= capacity
            assert free == capacity - used


@settings(max_examples=100, deadline=None)
@given(
    t0=st.floats(min_value=0.0, max_value=10.0),
    window=st.floats(min_value=0.1, max_value=2.0),
    probes=st.lists(
        st.floats(min_value=0.0, max_value=15.0), min_size=1, max_size=8
    ),
)
def test_memory_expiry_is_monotone_in_time(t0, window, probes):
    """Once a reservation has decohered it never comes back alive."""
    pool = MemoryPool(4, window_s=window)
    res = pool.try_reserve(("r0",), t0, slots_per_node=2)
    assert res is not None
    was_dead = False
    for t in sorted(probes):
        alive = pool.alive(res, t)
        if was_dead:
            assert not alive
        if not alive:
            was_dead = True
        assert alive == (t < t0 + window)


def test_zero_capacity_pool_blocks_everything():
    pool = MemoryPool(0)
    assert pool.try_reserve(("r0",), 0.0) is None
    pool = MemoryPool(None)  # unbounded
    for i in range(50):
        assert pool.try_reserve(("r0",), float(i)) is not None


# --- purification physics ------------------------------------------------


def werner_state(f: float) -> np.ndarray:
    phi = generate_bell_pair()
    return f * phi + (1.0 - f) / 3.0 * (np.eye(4, dtype=complex) - phi)


@pytest.mark.parametrize("eta1", [0.3, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("eta2", [0.3, 0.6, 0.95])
def test_distill_step_matches_the_dejmps_density_matrix_oracle(eta1, eta2):
    """The closed form equals DEJMPS on Werner-twirled damped pairs."""
    f1 = projection_fidelity(eta1)
    f2 = projection_fidelity(eta2)
    # The twirled delivered pair has exactly the closed-form fidelity.
    pair = distribute_entanglement([eta1])
    assert float(np.real(np.trace(generate_bell_pair() @ werner_twirl(pair.rho)))) == (
        pytest.approx(f1, abs=1e-12)
    )
    _, rho_out = dejmps_purification(werner_state(f1), werner_state(f2))
    oracle = float(np.real(np.trace(generate_bell_pair() @ rho_out)))
    assert distill_step(f1, f2) == pytest.approx(oracle, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    f1=st.floats(min_value=0.5, max_value=1.0),
    f2=st.floats(min_value=0.5, max_value=1.0),
)
def test_distill_step_improves_good_pairs(f1, f2):
    """Above the 0.5 Werner threshold distillation never hurts the
    better input when partnered with an equal-or-better pair."""
    out = distill_step(f1, f2)
    assert 0.0 <= out <= 1.0
    if f1 == f2 and f1 > 0.5:
        assert out >= f1 - 1e-12
