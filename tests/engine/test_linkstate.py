"""Unit tests for :class:`repro.engine.linkstate.LinkStateCache`.

The cache's graphs must reproduce the scalar ``QuantumNetwork.link_graph``
path edge-for-edge (etas to 1e-12), and its routing-table memoization must
actually reuse tables when the weighted feasible-edge set repeats.
"""

import numpy as np
import pytest

from repro.channels.presets import paper_hap_fso, paper_isl_fso, paper_satellite_fso
from repro.engine import LinkStateCache
from repro.engine.linkstate import USABLE
from repro.errors import ValidationError
from repro.network.hap import HAP
from repro.network.simulator import NetworkSimulator
from repro.network.topology import attach_hap, attach_satellites, build_qntn_ground_network
from repro.orbits.ephemeris import generate_movement_sheet
from repro.orbits.walker import qntn_constellation
from repro.utils.intervals import Interval


def assert_graphs_match(cached, direct, *, tol=1e-12):
    assert set(cached) == set(direct)
    for node in direct:
        assert set(cached[node]) == set(direct[node]), f"edge set differs at {node}"
        for neighbor, eta in direct[node].items():
            assert cached[node][neighbor] == pytest.approx(eta, abs=tol)


@pytest.fixture(scope="module")
def sat_network(small_ephemeris):
    network = build_qntn_ground_network()
    attach_satellites(network, small_ephemeris, paper_satellite_fso())
    return network


@pytest.fixture(scope="module")
def sat_cache(sat_network):
    return LinkStateCache(sat_network)


class TestGraphEquivalence:
    def test_matches_direct_link_graph_on_grid(self, sat_network, sat_cache, small_ephemeris):
        for t in small_ephemeris.times_s[::17]:
            assert_graphs_match(sat_cache.graph(float(t)), sat_network.link_graph(float(t)))

    def test_matches_between_grid_samples(self, sat_network, sat_cache, small_ephemeris):
        # Satellites move sample-and-hold, so a mid-interval query must
        # resolve to the most recent sample on both paths.
        t = float(small_ephemeris.times_s[3]) + 17.5
        assert_graphs_match(sat_cache.graph(t), sat_network.link_graph(t))

    def test_hap_network_matches(self):
        network = build_qntn_ground_network()
        attach_hap(network, HAP(), paper_hap_fso())
        cache = LinkStateCache(network)
        assert_graphs_match(cache.graph(0.0), network.link_graph(0.0))

    def test_hap_duty_cycle_mask(self):
        network = build_qntn_ground_network()
        attach_hap(
            network,
            HAP(operational_windows=[Interval(0.0, 500.0)]),
            paper_hap_fso(),
        )
        cache = LinkStateCache(network, times_s=np.array([0.0, 600.0]))
        assert_graphs_match(cache.graph(0.0), network.link_graph(0.0))
        assert_graphs_match(cache.graph(600.0), network.link_graph(600.0))
        # Outside the window every HAP link must be down on both paths.
        assert all("hap-0" not in nbrs for nbrs in cache.graph(600.0).values())

    def test_isl_channels_match(self):
        eph = generate_movement_sheet(qntn_constellation(6), duration_s=1800.0, step_s=300.0)
        network = build_qntn_ground_network()
        attach_satellites(network, eph, paper_satellite_fso(), isl_model=paper_isl_fso())
        cache = LinkStateCache(network)
        for t in eph.times_s:
            assert_graphs_match(cache.graph(float(t)), network.link_graph(float(t)))

    def test_all_hosts_present_even_when_isolated(self, sat_cache, sat_network):
        graph = sat_cache.graph_at_index(0)
        assert set(graph) == set(sat_network.host_names)

    def test_satellite_to_mobile_platform_rejected(self):
        """A satellite paired with a moving host that is not a satellite
        has no vectorized distance: the build refuses the channel instead
        of pricing it from the host's first position."""

        class DriftingHAP(HAP):
            @property
            def is_mobile(self) -> bool:
                return True

        eph = generate_movement_sheet(qntn_constellation(6), duration_s=1800.0, step_s=300.0)
        network = build_qntn_ground_network()
        attach_satellites(network, eph, paper_satellite_fso())
        network.add_host(DriftingHAP(name="hap-drift"))
        network.connect("sat-000", "hap-drift", paper_isl_fso())
        with pytest.raises(ValidationError, match="hap-drift"):
            LinkStateCache(network)


class TestTimeIndexing:
    def test_time_index_clamps(self, sat_cache, small_ephemeris):
        assert sat_cache.time_index(-100.0) == 0
        assert sat_cache.time_index(1e9) == sat_cache.n_times - 1
        assert sat_cache.n_times == small_ephemeris.n_samples

    def test_time_index_holds_previous_sample(self, sat_cache, small_ephemeris):
        step = float(small_ephemeris.times_s[1] - small_ephemeris.times_s[0])
        assert sat_cache.time_index(step - 0.1) == 0
        assert sat_cache.time_index(step) == 1

    def test_out_of_range_index_rejected(self, sat_cache):
        with pytest.raises(ValidationError):
            sat_cache.graph_at_index(sat_cache.n_times)

    def test_bad_explicit_grid_rejected(self, sat_network):
        with pytest.raises(ValidationError):
            LinkStateCache(sat_network, times_s=np.array([1.0, 1.0]))
        with pytest.raises(ValidationError):
            LinkStateCache(sat_network, times_s=np.array([]))

    def test_static_network_gets_single_sample_grid(self):
        network = build_qntn_ground_network()
        cache = LinkStateCache(network)
        assert cache.n_times == 1


class TestAdvanceIndex:
    """The streaming cursor's clamp contract (documented on advance_index).

    ``advance_index`` must resolve every timestamp to the identical index
    the stateless ``time_index`` bisection gives — including timestamps
    before the grid (clamp to 0), past the grid (clamp to the last
    sample), and non-monotonic arrivals that jump behind the cursor.
    """

    def fresh_cache(self, sat_network):
        return LinkStateCache(sat_network)

    def test_before_grid_clamps_to_first_sample(self, sat_network):
        cache = self.fresh_cache(sat_network)
        assert cache.advance_index(-1e6) == 0
        assert cache.advance_index(float(cache.times_s[0]) - 0.5) == 0

    def test_past_grid_clamps_to_last_sample(self, sat_network):
        cache = self.fresh_cache(sat_network)
        last = cache.n_times - 1
        assert cache.advance_index(float(cache.times_s[-1])) == last
        assert cache.advance_index(float(cache.times_s[-1]) + 1e9) == last
        # The cursor is pinned at the end; further queries stay clamped.
        assert cache.advance_index(2e9) == last

    def test_non_monotonic_jump_behind_cursor(self, sat_network):
        cache = self.fresh_cache(sat_network)
        ahead = float(cache.times_s[40])
        assert cache.advance_index(ahead) == 40
        # A timestamp behind the cursor must still resolve correctly
        # (full bisection fallback), without corrupting the cursor.
        behind = float(cache.times_s[7]) + 0.25
        assert cache.advance_index(behind) == 7
        assert cache.advance_index(ahead) == 40

    def test_interleaved_matches_time_index(self, sat_network, rng):
        cache = self.fresh_cache(sat_network)
        span = float(cache.times_s[-1])
        queries = np.concatenate(
            [
                np.sort(rng.uniform(-60.0, span + 120.0, size=80)),
                rng.uniform(-60.0, span + 120.0, size=40),  # arbitrary order
            ]
        )
        for t in queries:
            assert cache.advance_index(float(t)) == cache.time_index(float(t))


def usable_counts(cache):
    """Number of usable links at each grid sample, shape ``(T,)``."""
    return np.count_nonzero(cache._gates & USABLE, axis=1)


class TestRoutingMemoization:
    def test_static_network_reuses_one_table(self):
        network = build_qntn_ground_network()
        attach_hap(network, HAP(), paper_hap_fso())
        cache = LinkStateCache(network, times_s=np.array([0.0, 100.0, 5000.0]))
        trees = [
            cache.routing_tree_at_index(cache.time_index(t), "ttu-0")
            for t in (0.0, 100.0, 5000.0)
        ]
        assert trees[0] is trees[1] is trees[2]
        assert cache.n_tree_builds == 1
        assert cache.n_tree_hits == 2

    def test_distinct_edge_sets_get_distinct_tables(self, sat_cache, small_ephemeris):
        # Pick two grid samples with different usable-edge counts — their
        # edge keys must differ and each gets its own relaxation.
        counts = usable_counts(sat_cache)
        k0, k1 = 0, int(np.argmax(counts != counts[0]))
        assert counts[k0] != counts[k1], "fixture should vary over 2 h"
        assert sat_cache.edge_key(k0) != sat_cache.edge_key(k1)

    def test_tree_reaches_destinations_of_direct_path(self, sat_network, sat_cache):
        direct = NetworkSimulator(sat_network)
        t = 0.0
        outcome = direct.serve_request("ttu-0", "ttu-1", t)
        tree = sat_cache.routing_tree_at_index(sat_cache.time_index(t), "ttu-0")
        assert tuple(tree.path_to("ttu-1")) == outcome.path

    def test_edge_key_is_weighted(self, sat_cache):
        # The memoization contract: equal keys exactly when the weighted
        # graphs are equal, so a drifted eta on an unchanged topology
        # must get its own key (and its own routing table).
        n = sat_cache.n_times
        graphs = [sat_cache.graph_at_index(k) for k in range(n)]
        keys = [sat_cache.edge_key(k) for k in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                assert (keys[i] == keys[j]) == (graphs[i] == graphs[j]), (i, j)

        def topology(graph):
            return {(u, v) for u, nbrs in graph.items() for v in nbrs}

        drifted = [
            k
            for k in range(n - 1)
            if topology(graphs[k]) == topology(graphs[k + 1])
            and graphs[k] != graphs[k + 1]
        ]
        assert drifted, "fixture should hold a pass with drifting etas"
        assert all(keys[k] != keys[k + 1] for k in drifted)


class TestSimulatorIntegration:
    def test_simulator_lazily_builds_cache(self, sat_network):
        simulator = NetworkSimulator(sat_network, use_cache=True)
        assert simulator._linkstate is None
        simulator.link_graph(0.0)
        assert isinstance(simulator.linkstate, LinkStateCache)

    def test_invalidate_cache_rebuilds(self, sat_network):
        simulator = NetworkSimulator(sat_network, use_cache=True)
        first = simulator.linkstate
        simulator.invalidate_cache()
        assert simulator.linkstate is not first

    def test_feasible_edge_counts_shape(self, sat_cache):
        counts = usable_counts(sat_cache)
        assert counts.shape == (sat_cache.n_times,)
        for k in range(sat_cache.n_times):
            graph = sat_cache.graph_at_index(k)
            assert 2 * counts[k] == sum(len(nbrs) for nbrs in graph.values()), k
