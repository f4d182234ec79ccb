"""Differential tests: the prefix kernel ``SpaceGroundAnalysis.serve_prefixes``
and its one-size case ``serve`` against a per-request loop over
``best_relay``.

``serve_prefixes`` builds one (request x satellite) cost matrix over the
largest prefix and answers every prefix size from its running minimum
(:func:`~repro.core.analysis.prefix_argmin`); ``best_relay`` is the
scalar form of the same decision at one size. Both must return the same
floats, bit for bit, on healthy and faulted budgets, at every
constellation-prefix size, and on synthetic tables built to hit the tie
rule, unservable rows and all-``inf`` leading prefixes.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.channels.presets import paper_satellite_fso
from repro.core.analysis import SpaceGroundAnalysis, prefix_argmin
from repro.engine.budgets import POINT_DTYPE, LinkBudgetTable, SiteLinkBudget
from repro.errors import ValidationError
from repro.faults import FaultSchedule, LinkFlap, SatelliteOutage, WeatherFade


def _loop(analysis, pairs, t, epsilon=None, n_satellites=None):
    kwargs = {} if epsilon is None else {"epsilon": epsilon}
    out = []
    for src, dst in pairs:
        hit = analysis.best_relay(src, dst, t, n_satellites=n_satellites, **kwargs)
        out.append(None if hit is None else hit[1])
    return out


def _kernel_lists(analysis, pairs, t, sizes, epsilon=None):
    """``serve_prefixes`` columns in ``serve``'s list form, one per size."""
    kwargs = {} if epsilon is None else {"epsilon": epsilon}
    path_eta, served = analysis.serve_prefixes(pairs, t, sizes, **kwargs)
    assert path_eta.shape == served.shape == (len(pairs), len(sizes))
    assert np.isnan(path_eta[~served]).all()
    return [
        [e if hit else None for e, hit in zip(path_eta[:, j].tolist(), served[:, j].tolist())]
        for j in range(len(sizes))
    ]


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

    def test_index_switches_match_loop(self, analysis, sites):
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


    @pytest.mark.parametrize("n", [6.5, True, False, "6", 6.0])
    def test_non_integer_prefix_rejected(self, analysis, n):
        with pytest.raises(ValidationError, match="integer"):
            analysis.serve([("ttu-0", "epb-0")], 0, n_satellites=n)
        with pytest.raises(ValidationError, match="integer"):
            analysis.best_relay("ttu-0", "epb-0", 0, n_satellites=n)
        with pytest.raises(ValidationError, match="integer"):
            analysis.request_detail("ttu-0", "epb-0", 0, n_satellites=n)
        with pytest.raises(ValidationError, match="integer"):
            analysis.serve_prefixes([("ttu-0", "epb-0")], 0, [1, n])

    def test_numpy_integer_prefix_accepted(self, analysis, sites):
        pairs = _random_pairs(sites, np.random.default_rng(8), 20)
        for n in (np.int64(6), np.int32(12), np.intp(0)):
            assert analysis.serve(pairs, 30, n_satellites=n) == analysis.serve(
                pairs, 30, n_satellites=int(n)
            )


class TestServePrefixes:
    """One kernel call answers every prefix size as ``best_relay`` does."""

    def test_every_prefix_matches_loop(self, analysis, sites):
        pairs = _random_pairs(sites, np.random.default_rng(23), 40)
        sizes = list(range(analysis.ephemeris.n_platforms + 1))
        n_served = 0
        for t in range(0, analysis.n_times, 3):
            columns = _kernel_lists(analysis, pairs, t, sizes)
            for n, column in zip(sizes, columns):
                assert column == _loop(analysis, pairs, t, n_satellites=n), (t, n)
                n_served += sum(e is not None for e in column)
        assert n_served > 0

    def test_sweep_like_sizes_match_serve(self, analysis, sites):
        pairs = _random_pairs(sites, np.random.default_rng(29), 30)
        sizes = [1, 6, 12]
        for t in (0, 30, 31, 90):
            columns = _kernel_lists(analysis, pairs, t, sizes)
            assert columns == [analysis.serve(pairs, t, n_satellites=n) for n in sizes]

    def test_empty_inputs(self, analysis):
        path_eta, served = analysis.serve_prefixes([], 0, [1, 6])
        assert path_eta.shape == served.shape == (0, 2)
        path_eta, served = analysis.serve_prefixes([("ttu-0", "epb-0")], 0, [])
        assert path_eta.shape == served.shape == (1, 0)
        path_eta, served = analysis.serve_prefixes([("ttu-0", "epb-0")] * 3, 0, [0, 0])
        assert not served.any() and np.isnan(path_eta).all()

    @pytest.mark.parametrize("sizes", [[-1], [6, 13], [6.5], [True], [1, "6"]])
    def test_bad_sizes_rejected(self, analysis, sizes):
        with pytest.raises(ValidationError, match="n_satellites"):
            analysis.serve_prefixes([("ttu-0", "epb-0")], 0, sizes)

    def test_unknown_site_raises_validation_error(self, analysis):
        with pytest.raises(ValidationError, match="nope"):
            analysis.serve_prefixes([("ttu-0", "epb-0"), ("epb-0", "nope")], 0, [6])


# Small costs from a few values: ties are everywhere and inf (no usable
# satellite) fills whole leading prefixes and whole rows.
_costs = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 12)),
    elements=st.sampled_from([1.0, 2.0, 2.5, np.inf]),
)


@given(_costs)
def test_prefix_argmin_is_first_minimum_argmin(cost):
    sizes = np.arange(1, cost.shape[1] + 1)
    expected = np.stack([cost[:, :n].argmin(axis=1) for n in sizes], axis=1)
    np.testing.assert_array_equal(prefix_argmin(cost, sizes), expected)


@given(_costs, st.data())
def test_prefix_argmin_reads_chosen_sizes(cost, data):
    sizes = sorted(data.draw(st.sets(st.integers(1, cost.shape[1]), min_size=1)))
    expected = np.stack([cost[:, :n].argmin(axis=1) for n in sizes], axis=1)
    np.testing.assert_array_equal(prefix_argmin(cost, np.array(sizes)), expected)


def _budget(site, eta, usable):
    """A budget with a record at every point: elevation and slant range
    0, the given ``eta`` and ``usable``, so its dense views are exactly
    those arrays."""
    points = np.zeros(eta.size, dtype=POINT_DTYPE)
    points["index"] = np.arange(eta.size)
    points["transmissivity"] = eta.reshape(-1)
    points["usable"] = usable.reshape(-1)
    return SiteLinkBudget(site, eta.shape, points)


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
            budgets[site.name] = _budget(site, eta, rng.random(shape) < 0.6)
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
        budgets = {
            s.name: _budget(s, 1.0 / (k_dst if s.name == "epb-0" else k_src), usable)
            for s in sites
        }
        table = _FixedTable(small_ephemeris, sites, budgets)
        analysis = SpaceGroundAnalysis(
            small_ephemeris, sites, paper_satellite_fso(), budgets=table
        )
        assert analysis.best_relay("ttu-0", "epb-0", 0, 0.0) == (1, 1.0 / 12.0)
        assert analysis.serve([("ttu-0", "epb-0")], 0, 0.0) == [1.0 / 12.0]

    def test_prefixes_match_loop_on_ties(self, tied, sites):
        pairs = _random_pairs(sites, np.random.default_rng(4), 50)
        sizes = list(range(tied.ephemeris.n_platforms + 1))
        for t in range(0, tied.n_times, 11):
            columns = _kernel_lists(tied, pairs, t, sizes, 0.0)
            for n, column in zip(sizes, columns):
                assert column == _loop(tied, pairs, t, 0.0, n), (t, n)

    def test_ties_empty_rows_and_inf_prefixes(self, small_ephemeris, sites):
        """A hand-built sample: ``k`` is ``1/eta`` per site and satellite.

        ttu-0 -> epb-0 sees nothing on satellites 0-2 (an all-inf leading
        prefix), then cost 8 on satellites 3 (2+6, eta 1/12) and 4 (4+4,
        eta 1/16), then cost 6 on satellites 7 (3+3, eta 1/9) and 9 (2+4,
        eta 1/8): the first of each tie wins. ornl-0 has no usable
        satellite, so its row is never served.
        """
        n_sats = small_ephemeris.n_platforms
        shape = (n_sats, small_ephemeris.n_samples)
        k = {s.name: np.full(shape, 10.0) for s in sites}
        usable = {s.name: np.zeros(shape, dtype=bool) for s in sites}
        for sat, (k_src, k_dst) in {3: (2, 6), 4: (4, 4), 7: (3, 3), 9: (2, 4)}.items():
            k["ttu-0"][sat], k["epb-0"][sat] = k_src, k_dst
            usable["ttu-0"][sat] = usable["epb-0"][sat] = True
        usable["ttu-0"][10] = True  # usable at one end only
        budgets = {s.name: _budget(s, 1.0 / k[s.name], usable[s.name]) for s in sites}
        analysis = SpaceGroundAnalysis(
            small_ephemeris,
            sites,
            paper_satellite_fso(),
            budgets=_FixedTable(small_ephemeris, sites, budgets),
        )
        pairs = [("ttu-0", "epb-0"), ("ttu-0", "ornl-0"), ("epb-0", "ttu-0")]
        sizes = list(range(n_sats + 1))
        columns = _kernel_lists(analysis, pairs, 0, sizes, 0.0)
        for n, column in zip(sizes, columns):
            expected = None if n <= 3 else 1.0 / 12.0 if n <= 7 else 1.0 / 9.0
            assert column == [expected, None, expected], n
            assert column == _loop(analysis, pairs, 0, 0.0, n), n
