"""Differential tests: the batched ``SpaceGroundAnalysis.serve`` against a
per-request loop over ``best_relay``.

``serve`` builds one (request x satellite) cost matrix per call and takes
its first-minimum ``argmin`` per row; ``best_relay`` is the scalar form
of the same decision. Both must return the same floats, bit for bit, on
healthy and faulted budgets, at every constellation-prefix size, and
across switches of the time index that exercise ``serve``'s one-entry
column memo.
"""

import numpy as np
import pytest

from repro.channels.presets import paper_satellite_fso
from repro.core.analysis import SpaceGroundAnalysis
from repro.engine.budgets import LinkBudgetTable, SiteLinkBudget
from repro.errors import ValidationError
from repro.faults import FaultSchedule, LinkFlap, SatelliteOutage, WeatherFade


def _loop(analysis, pairs, t, epsilon=None, n_satellites=None):
    kwargs = {} if epsilon is None else {"epsilon": epsilon}
    out = []
    for src, dst in pairs:
        hit = analysis.best_relay(src, dst, t, n_satellites=n_satellites, **kwargs)
        out.append(None if hit is None else hit[1])
    return out


def _random_pairs(sites, rng, n):
    """Random endpoint pairs with repeats, same-LAN and same-site pairs."""
    names = [s.name for s in sites]
    pairs = [tuple(rng.choice(names, size=2)) for _ in range(n)]
    pairs += [pairs[0], pairs[0], ("ttu-0", "ttu-1"), ("epb-2", "epb-5"), ("ornl-3", "ornl-3")]
    return [(str(a), str(b)) for a, b in pairs]


@pytest.fixture(scope="module")
def faulted_analysis(small_ephemeris, sites):
    plane = FaultSchedule(
        events=(
            SatelliteOutage(0.0, 7200.0, satellite="sat-004"),
            WeatherFade(0.0, 3600.0, site="ttu-0", extra_db=2.5),
            LinkFlap(0.0, 1800.0, node_a="ttu-3", node_b="sat-001"),
        )
    ).compile()
    return SpaceGroundAnalysis(small_ephemeris, sites, paper_satellite_fso(), faults=plane)


@pytest.fixture(params=["healthy", "faulted"])
def analysis(request, sat_analysis_small, faulted_analysis):
    return sat_analysis_small if request.param == "healthy" else faulted_analysis


class TestBatchedServe:
    def test_faulted_table_differs_from_healthy(self, sat_analysis_small, faulted_analysis):
        assert faulted_analysis.budget("ttu-0").usable_healthy is not None
        healthy = sat_analysis_small.budget("ttu-0").usable
        assert not np.array_equal(faulted_analysis.budget("ttu-0").usable, healthy)

    def test_every_prefix_size_matches_loop(self, analysis, sites):
        rng = np.random.default_rng(3)
        pairs = _random_pairs(sites, rng, 40)
        n_sats = analysis.ephemeris.n_platforms
        n_served = 0
        for t in range(0, analysis.n_times, 7):
            for n in range(n_sats + 1):
                fast = analysis.serve(pairs, t, n_satellites=n)
                assert fast == _loop(analysis, pairs, t, n_satellites=n), (t, n)
                n_served += sum(e is not None for e in fast)
            assert analysis.serve(pairs, t) == _loop(analysis, pairs, t)
        assert n_served > 0  # the comparison saw served requests

    def test_random_batches_match_loop(self, analysis, sites):
        rng = np.random.default_rng(17)
        for _ in range(5):
            pairs = _random_pairs(sites, rng, int(rng.integers(1, 60)))
            t = int(rng.integers(analysis.n_times))
            assert analysis.serve(pairs, t) == _loop(analysis, pairs, t)

    def test_empty_batch(self, analysis):
        assert analysis.serve([], 0) == []
        assert analysis.serve([], 0, n_satellites=0) == []

    def test_memo_survives_index_switches(self, analysis, sites):
        pairs = _random_pairs(sites, np.random.default_rng(5), 30)
        first = analysis.serve(pairs, 30)
        for t in (31, 30, 90, 30, 31):
            assert analysis.serve(pairs, t) == _loop(analysis, pairs, t), t
        assert analysis.serve(pairs, 30) == first

    def test_unknown_site_raises_validation_error(self, analysis):
        with pytest.raises(ValidationError, match="nope"):
            analysis.serve([("ttu-0", "epb-0"), ("nope", "epb-0")], 0)
        with pytest.raises(ValidationError, match="nope"):
            analysis.serve([("ttu-0", "nope")], 0)

    @pytest.mark.parametrize("n", [-1, 13])
    def test_prefix_out_of_range_rejected(self, analysis, n):
        with pytest.raises(ValidationError, match="n_satellites"):
            analysis.serve([("ttu-0", "epb-0")], 0, n_satellites=n)
        with pytest.raises(ValidationError, match="n_satellites"):
            analysis.best_relay("ttu-0", "epb-0", 0, n_satellites=n)
        with pytest.raises(ValidationError, match="n_satellites"):
            analysis.request_detail("ttu-0", "epb-0", 0, n_satellites=n)


class _FixedTable(LinkBudgetTable):
    """A budget table serving given budgets instead of computing them."""

    def __init__(self, ephemeris, sites, budgets):
        super().__init__(ephemeris, sites, paper_satellite_fso())
        self.fixed = budgets

    def budget(self, site_name):
        return self.fixed[site_name]


class TestTieRule:
    """Equal costs with different products: the first minimum must win.

    With ``epsilon=0`` and every eta of the form ``1/k`` the two-hop
    cost is the integer ``k_src + k_dst``, so ties are everywhere, and
    e.g. (2, 6) and (4, 4) tie at 8 with path etas 1/12 and 1/16.
    """

    @pytest.fixture(scope="class")
    def tied(self, small_ephemeris, sites):
        rng = np.random.default_rng(11)
        shape = (small_ephemeris.n_platforms, small_ephemeris.n_samples)
        budgets = {}
        for site in sites:
            eta = 1.0 / rng.choice([1, 2, 3, 4, 6], size=shape)
            zeros = np.zeros(shape)
            budgets[site.name] = SiteLinkBudget(
                site, zeros, zeros, eta, rng.random(shape) < 0.6
            )
        table = _FixedTable(small_ephemeris, sites, budgets)
        return SpaceGroundAnalysis(
            small_ephemeris, sites, paper_satellite_fso(), budgets=table
        )

    def test_ties_with_different_products_match_loop(self, tied, sites):
        pairs = _random_pairs(sites, np.random.default_rng(2), 50)
        for t in range(0, tied.n_times, 11):
            for n in (1, 2, 5, None):
                fast = tied.serve(pairs, t, 0.0, n_satellites=n)
                assert fast == _loop(tied, pairs, t, 0.0, n), (t, n)

    def test_first_minimum_wins(self, small_ephemeris, sites):
        shape = (small_ephemeris.n_platforms, small_ephemeris.n_samples)
        k_src = np.full(shape, 5.0)
        k_dst = np.full(shape, 5.0)
        k_src[1], k_dst[1] = 2.0, 6.0  # cost 8, eta 1/12
        k_src[2], k_dst[2] = 4.0, 4.0  # cost 8, eta 1/16
        usable = np.ones(shape, dtype=bool)
        zeros = np.zeros(shape)
        budgets = {
            s.name: SiteLinkBudget(
                s, zeros, zeros, 1.0 / (k_dst if s.name == "epb-0" else k_src), usable
            )
            for s in sites
        }
        table = _FixedTable(small_ephemeris, sites, budgets)
        analysis = SpaceGroundAnalysis(
            small_ephemeris, sites, paper_satellite_fso(), budgets=table
        )
        assert analysis.best_relay("ttu-0", "epb-0", 0, 0.0) == (1, 1.0 / 12.0)
        assert analysis.serve([("ttu-0", "epb-0")], 0, 0.0) == [1.0 / 12.0]
