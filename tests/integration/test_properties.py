"""Cross-module property-based tests on system invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.timing import EntanglementRateModel
from repro.network.protocols import distribute_entanglement, purified_delivery
from repro.qkd.bbm92 import bbm92_secret_fraction, qber_from_transmissivity
from repro.quantum.fidelity import entanglement_fidelity_from_transmissivity
from repro.routing.bellman_ford import bellman_ford
from tests.routing.dijkstra import dijkstra

etas = st.floats(min_value=0.0, max_value=1.0)
good_etas = st.floats(min_value=0.05, max_value=1.0)


def random_connected_graph(rng, n):
    names = [f"v{i}" for i in range(n)]
    graph = {name: {} for name in names}
    order = rng.permutation(n)
    for a, b in zip(order, order[1:]):
        eta = float(rng.uniform(0.05, 1.0))
        graph[names[a]][names[b]] = eta
        graph[names[b]][names[a]] = eta
    for _ in range(n):
        i, j = rng.choice(n, size=2, replace=False)
        eta = float(rng.uniform(0.05, 1.0))
        graph[names[i]][names[j]] = eta
        graph[names[j]][names[i]] = eta
    return graph, names


class TestRoutingInvariants:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=14))
    def test_symmetric_costs_on_undirected_graphs(self, seed, n):
        """cost(a -> b) == cost(b -> a) on symmetric link graphs."""
        rng = np.random.default_rng(seed)
        graph, names = random_connected_graph(rng, n)
        fwd = bellman_ford(graph, names[0]).costs[names[-1]]
        back = bellman_ford(graph, names[-1]).costs[names[0]]
        assert fwd == pytest.approx(back, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=14))
    def test_triangle_inequality_of_costs(self, seed, n):
        """cost(a -> c) <= cost(a -> b) + cost(b -> c)."""
        rng = np.random.default_rng(seed)
        graph, names = random_connected_graph(rng, n)
        a, b, c = names[0], names[n // 2], names[-1]
        costs_a = bellman_ford(graph, a).costs
        costs_b = bellman_ford(graph, b).costs
        assert costs_a[c] <= costs_a[b] + costs_b[c] + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=14))
    def test_dijkstra_bellman_ford_equivalence(self, seed, n):
        rng = np.random.default_rng(seed)
        graph, names = random_connected_graph(rng, n)
        bf = bellman_ford(graph, names[0]).costs
        dj, _ = dijkstra(graph, names[0])
        for node in names:
            assert bf[node] == pytest.approx(dj[node], abs=1e-9)


class TestQuantumLayerInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(etas, min_size=1, max_size=4))
    def test_fidelity_never_below_half_nor_above_one(self, path):
        pair = distribute_entanglement(path)
        f = pair.fidelity("sqrt")
        assert 0.5 - 1e-12 <= f <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(etas, etas)
    def test_fidelity_monotone_in_path_quality(self, a, b):
        """A strictly better path never delivers lower fidelity."""
        lo, hi = sorted((a, b))
        f_lo = float(entanglement_fidelity_from_transmissivity(lo))
        f_hi = float(entanglement_fidelity_from_transmissivity(hi))
        assert f_hi >= f_lo

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.3, max_value=1.0),
        st.integers(min_value=0, max_value=2),
    )
    def test_purification_never_reduces_fidelity_above_gain_threshold(self, eta, rounds):
        """Recurrence purification gains only for Werner fidelity > 1/2;
        eta >= 0.3 keeps the twirled pair safely in the gain regime."""
        base = purified_delivery(eta, 0).fidelity
        out = purified_delivery(eta, rounds)
        assert out.fidelity >= base - 1e-9
        assert 0.0 < out.success_probability <= 1.0

    def test_purification_loses_below_gain_threshold(self):
        """Documented boundary: at eta = 0.125 the twirled Werner fidelity
        is below 1/2 and a round makes things worse."""
        assert purified_delivery(0.125, 1).fidelity < purified_delivery(0.125, 0).fidelity

    @settings(max_examples=40, deadline=None)
    @given(etas)
    def test_qber_consistency_with_fidelity(self, eta):
        """Higher fidelity implies lower Z-basis QBER, and the secret
        fraction is zero whenever either QBER crosses 50 %."""
        e_z, e_x = qber_from_transmissivity(eta)
        assert 0.0 <= e_z <= 0.5 + 1e-12
        assert 0.0 <= e_x <= 0.5 + 1e-12
        assert bbm92_secret_fraction(e_z, e_x) <= 1.0


class TestThroughputInvariants:
    @settings(max_examples=40, deadline=None)
    @given(etas, st.floats(min_value=0.1, max_value=1.0))
    def test_pair_rate_bounded_by_source_rate(self, eta, det):
        model = EntanglementRateModel(source_rate_hz=1e6, detector_efficiency=det)
        rate = float(np.asarray(model.pair_rate_hz(eta)))
        assert 0.0 <= rate <= 1e6

    @settings(max_examples=40, deadline=None)
    @given(etas)
    def test_time_to_first_pair_at_least_mean_interval(self, eta):
        model = EntanglementRateModel(source_rate_hz=1e6, detector_efficiency=0.9)
        t = model.time_to_first_pair_s(eta)
        rate = float(np.asarray(model.pair_rate_hz(eta)))
        if rate > 0:
            assert t >= 1.0 / rate - 1e-15
        else:
            assert math.isinf(t)


class TestLinkBudgetInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=520.0, max_value=2500.0),
        st.floats(min_value=0.2, max_value=math.pi / 2),
    )
    def test_paper_satellite_preset_eta_bounds(self, slant, elev):
        from repro.channels.presets import paper_satellite_fso

        eta = float(np.asarray(paper_satellite_fso().transmissivity(slant, elev, 500.0)))
        assert 0.0 <= eta <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.0, max_value=400.0))
    def test_fiber_eta_decreasing(self, length):
        from repro.channels.presets import paper_fiber

        fiber = paper_fiber()
        assert fiber.transmissivity(length + 1.0) < fiber.transmissivity(length) + 1e-15
