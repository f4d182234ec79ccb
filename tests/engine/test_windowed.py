"""Windowed (incremental-advance) link state vs the eager precompute.

A windowed :class:`LinkStateCache` defers the transmissivity/admission/
fault physics and fills it chunk-by-chunk as the time cursor advances.
Every chunk operation is elementwise over the time axis, so the
windowed series must equal the eager full-horizon series *bitwise* —
for any window size, with or without a fault plane — and the fill must
actually be lazy (that is the perf point).
"""

import numpy as np
import pytest

from repro.channels.presets import paper_satellite_fso
from repro.engine import LinkStateCache
from repro.errors import ValidationError
from repro.faults import FaultSchedule, LinkFlap, SatelliteOutage, WeatherFade
from repro.network.topology import attach_satellites, build_qntn_ground_network

WINDOWS = [1, 7, 64, 120, 170]  # 120 == n_times for the 2 h / 60 s fixture


@pytest.fixture(scope="module")
def sat_network(small_ephemeris):
    network = build_qntn_ground_network()
    attach_satellites(network, small_ephemeris, paper_satellite_fso())
    return network


@pytest.fixture(scope="module")
def fault_plane():
    schedule = FaultSchedule(
        events=(
            SatelliteOutage(0.0, 3600.0, satellite="sat-004"),
            WeatherFade(600.0, 4800.0, site="ttu-0", extra_db=2.5),
            LinkFlap(0.0, 1800.0, node_a="ttu-3", node_b="sat-001"),
        )
    )
    return schedule.compile()


def assert_same_graph_series(windowed, eager):
    assert windowed.n_times == eager.n_times
    for k in range(eager.n_times):
        gw, ge = windowed.graph_at_index(k), eager.graph_at_index(k)
        assert set(gw) == set(ge)
        for node in ge:
            assert gw[node] == ge[node]  # exact float equality, not approx


class TestLinkStateWindowed:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_bitwise_equal_to_eager(self, sat_network, window):
        eager = LinkStateCache(sat_network)
        windowed = LinkStateCache(sat_network, window=window)
        assert_same_graph_series(windowed, eager)
        np.testing.assert_array_equal(
            windowed.feasible_edge_counts(), eager.feasible_edge_counts()
        )

    @pytest.mark.parametrize("window", [1, 64])
    def test_bitwise_equal_with_faults(self, sat_network, fault_plane, window):
        eager = LinkStateCache(sat_network, faults=fault_plane)
        windowed = LinkStateCache(sat_network, faults=fault_plane, window=window)
        assert_same_graph_series(windowed, eager)

    def test_fill_is_lazy(self, sat_network):
        cache = LinkStateCache(sat_network, window=10)
        assert cache._built_upto == 0
        cache.graph_at_index(0)
        assert cache._built_upto == 10
        cache.graph_at_index(34)
        assert cache._built_upto == 40  # rounded up to the window boundary
        cache.graph_at_index(3)  # inside the built prefix: no growth
        assert cache._built_upto == 40

    def test_eager_cache_is_fully_built(self, sat_network):
        cache = LinkStateCache(sat_network)
        assert cache._built_upto == cache.n_times

    @pytest.mark.parametrize(
        "window", [0, -3, True, False, 2.5, 8.0, float("nan"), float("inf"), -float("inf"), "8"]
    )
    def test_invalid_window_rejected(self, sat_network, window):
        with pytest.raises(ValidationError):
            LinkStateCache(sat_network, window=window)

    def test_routing_identical_to_eager(self, sat_network, small_ephemeris):
        eager = LinkStateCache(sat_network)
        windowed = LinkStateCache(sat_network, window=16)
        for t in small_ephemeris.times_s[::13]:
            for source in ("ttu-0", "ornl-10"):
                tw = windowed.routing_tree(float(t), source)
                te = eager.routing_tree(float(t), source)
                assert tw.costs == te.costs
                assert tw.predecessors == te.predecessors
