"""Failure-injection tests: satellite outages, HAP loss, degraded links.

The paper's coverage numbers assume every deployed satellite works. These
tests knock components out and check the system degrades the way a
network operator would expect — gracefully and monotonically.
"""

import numpy as np
import pytest

from repro.channels.presets import paper_hap_fso, paper_satellite_fso
from repro.core.analysis import SpaceGroundAnalysis
from repro.data.ground_nodes import all_ground_nodes
from repro.network.hap import HAP
from repro.network.links import LinkPolicy
from repro.network.simulator import NetworkSimulator
from repro.network.topology import attach_hap, build_qntn_ground_network


class TestSatelliteOutages:
    @pytest.fixture(scope="class")
    def day_eph(self):
        from repro.orbits.ephemeris import generate_movement_sheet
        from repro.orbits.walker import qntn_constellation

        return generate_movement_sheet(
            qntn_constellation(36), duration_s=86400.0, step_s=300.0
        )

    def test_killing_satellites_never_increases_coverage(self, day_eph, sites):
        full = SpaceGroundAnalysis(day_eph, sites, paper_satellite_fso())
        full_mask = full.all_pairs_connected()
        rng = np.random.default_rng(3)
        surviving = sorted(rng.choice(36, size=24, replace=False).tolist())
        degraded = SpaceGroundAnalysis(
            day_eph.subset(surviving), sites, paper_satellite_fso()
        )
        degraded_mask = degraded.all_pairs_connected()
        # Losing satellites can only remove covered instants.
        assert not np.any(degraded_mask & ~full_mask)
        assert degraded_mask.sum() <= full_mask.sum()

    def test_single_satellite_loss_is_graceful(self, day_eph, sites):
        """Losing any one satellite costs at most a few coverage points."""
        full = SpaceGroundAnalysis(day_eph, sites, paper_satellite_fso())
        base = full.all_pairs_connected().mean()
        survivors = [i for i in range(36) if i != 7]
        degraded = SpaceGroundAnalysis(
            day_eph.subset(survivors), sites, paper_satellite_fso()
        )
        dropped = degraded.all_pairs_connected().mean()
        assert base - dropped < 0.05

    def test_total_loss_means_zero_coverage(self, day_eph, sites):
        lone = SpaceGroundAnalysis(day_eph.subset([0]), sites, paper_satellite_fso())
        # One satellite covers at most a small slice of the day.
        assert lone.all_pairs_connected().mean() < 0.1


class TestHapFailures:
    def test_hap_loss_partitions_the_network(self):
        """Without the HAP, no inter-LAN route exists at all — it is the
        air-ground architecture's single point of failure."""
        network = build_qntn_ground_network()
        simulator = NetworkSimulator(network)  # no HAP attached
        assert not simulator.all_lans_connected(0.0)
        outcome = simulator.serve_request("ttu-0", "epb-0", 0.0)
        assert not outcome.served

    def test_degraded_hap_link_budget(self):
        """Halving receiver efficiency pushes HAP links below threshold."""
        from dataclasses import replace

        network = build_qntn_ground_network()
        broken = replace(paper_hap_fso(), receiver_efficiency=0.5)
        attach_hap(network, HAP(), broken)
        simulator = NetworkSimulator(network)
        assert not simulator.serve_request("ttu-0", "epb-0", 0.0).served

    def test_stricter_policy_disconnects(self):
        """Raising the threshold to 0.99 disqualifies every FSO link."""
        network = build_qntn_ground_network()
        attach_hap(network, HAP(), paper_hap_fso())
        strict = NetworkSimulator(
            network, policy=LinkPolicy(transmissivity_threshold=0.99)
        )
        assert not strict.all_lans_connected(0.0)
        # Intra-LAN fiber still works at 0.99.
        assert strict.serve_request("ttu-0", "ttu-1", 0.0).served


class TestDegradedRouting:
    def test_partial_graph_still_routes_where_possible(self, hap_simulator):
        graph = hap_simulator.link_graph(0.0)
        # Remove the HAP's link to the destination's whole LAN.
        cut = {
            u: {v: eta for v, eta in nbrs.items() if not (u == "hap-0" and v.startswith("epb"))
                and not (v == "hap-0" and u.startswith("epb"))}
            for u, nbrs in graph.items()
        }
        from repro.errors import NoPathError
        from repro.routing.bellman_ford import bellman_ford

        tree = bellman_ford(cut, "ttu-0")
        # TTU <-> ORNL still routes...
        assert "hap-0" in tree.path_to("ornl-0")
        # ...but EPB is now unreachable from TTU.
        with pytest.raises(NoPathError):
            tree.path_to("epb-0")
