"""The column-backed link state against a per-channel reference.

:class:`LinkStateCache` stores every channel's eta and admission series
as one column of two ``(grid sample, channel)`` arrays (eta and the
gate byte) and builds a sample's link graph, edge key and flat routing
graph from one row. The reference here is the per-channel loop the
arrays replaced: channels in build order (ground-satellite channels
grouped per site and moved after the rest), one usable-bit/``eta``
lookup per channel. The array path must reproduce it exactly — floats,
neighbour insertion order, flat CSR adjacency — on the 108-satellite day
and on a hybrid network whose HAP flies a duty cycle, healthy and under
the committed example fault schedule.

Each edge set's flat graph is a gather of the one routing CSR the cache
builds at construction, over a shared layer of the columns before the
first ground-satellite one; the memo layout tests pin what it shares and
that its memos stay out of the cyclic garbage collector.
"""

import gc
from pathlib import Path

import numpy as np
import pytest

from repro.channels.presets import paper_hap_fso, paper_satellite_fso
from repro.engine import LinkStateCache
from repro.engine.linkstate import USABLE
from repro.errors import ValidationError
from repro.faults import load_faults
from repro.network.hap import HAP
from repro.network.satellite import Satellite
from repro.network.topology import attach_hap, attach_satellites, build_qntn_ground_network
from repro.routing.bellman_ford import FlatGraph
from repro.routing.strategies import StrategyConfig
from repro.utils.intervals import Interval

EXAMPLE_FAULTS = Path(__file__).parents[2] / "benchmarks" / "results" / "example_faults.json"

#: Samples whose edge keys are compared pairwise.
PAIR_WINDOW = 48
#: Horizon of the per-sample checks: half the 120 s day, all of the 2 h
#: grid.
HORIZON = 360


def build_order(network):
    """Channels in the order the per-channel series list held them."""
    singles, groups = [], {}
    for channel in network.channels():
        sats = [h for h in (channel.host_a, channel.host_b) if isinstance(h, Satellite)]
        if sats and channel.is_ground_to_platform:
            ground = channel.host_a if channel.host_a.kind == "ground" else channel.host_b
            key = (
                ground.name,
                id(sats[0].ephemeris),
                id(channel.model),
                sats[0].nominal_altitude_km,
            )
            groups.setdefault(key, []).append(channel)
        else:
            singles.append(channel)
    return singles + [channel for members in groups.values() for channel in members]


def reference_graph(cache, k):
    """The per-channel loop: one series lookup per channel at sample ``k``."""
    column = {pair: c for c, pair in enumerate(cache._pairs)}
    eta, gates = cache._eta, cache._gates
    graph = {name: {} for name in cache.network.host_names}
    for channel in build_order(cache.network):
        a, b = channel.names
        c = column[(a, b)]
        if gates[k, c] & USABLE:
            value = float(eta[k, c])
            graph[a][b] = value
            graph[b][a] = value
    return graph


def day_network(ephemeris):
    network = build_qntn_ground_network()
    attach_satellites(network, ephemeris, paper_satellite_fso())
    return network


def hybrid_network(ephemeris):
    network = day_network(ephemeris)
    attach_hap(
        network,
        HAP(operational_windows=[Interval(0.0, 1800.0), Interval(3600.0, 5400.0)]),
        paper_hap_fso(),
    )
    return network


@pytest.fixture(scope="module", params=["day-108", "hybrid-hap"])
def network(request, day_ephemeris_108, small_ephemeris):
    if request.param == "day-108":
        return day_network(day_ephemeris_108)
    return hybrid_network(small_ephemeris)


def example_plane():
    return load_faults(EXAMPLE_FAULTS).realize(seed=7, horizon_s=86400.0).compile()


@pytest.fixture(scope="module", params=["healthy", "example-faults"])
def faults(request):
    return None if request.param == "healthy" else example_plane()


@pytest.fixture(scope="module", params=["eager"])  # the id keeps test ids stable
def cache(request, network, faults):
    return LinkStateCache(network, faults=faults)


def sampled(cache):
    """Every fifth sample up to the horizon, plus one contiguous run."""
    return sorted(
        set(range(0, min(cache.n_times, HORIZON), 5)) | set(range(PAIR_WINDOW))
    )


def test_graph_equals_the_per_channel_loop(cache):
    for k in sampled(cache):
        graph = cache.graph_at_index(k)
        expected = reference_graph(cache, k)
        assert graph == expected, k
        assert list(graph) == list(expected)
        for node, neighbors in expected.items():
            assert list(graph[node]) == list(neighbors), (k, node)


def neighbour_rows(flat):
    """Each node's neighbours as ``(tail, head, cost, eta)``: its shared
    layer's edges, then its own — the order Dijkstra relaxes them in."""
    shared = flat._shared
    rows = []
    for u in range(len(flat.nodes)):
        row = [
            (shared.tails[e], shared.heads[e], shared.costs[e], shared.etas[e])
            for e in range(shared.offsets[u], shared.offsets[u + 1])
        ]
        row += [
            (flat._tails[e], flat._heads[e], flat._costs[e], flat._etas[e])
            for e in range(flat._offsets[u], flat._offsets[u + 1])
        ]
        rows.append(row)
    return rows


def test_array_built_flat_graph_equals_dict_built(cache):
    """The gathered graph of a row, strict and relaxed at the k-shortest
    rescue's threshold, is the dict-built one: each node's shared-then-own
    neighbours are the dict graph's neighbours in order, floats bit for
    bit. The dict-built graph holds every edge as its own."""
    for eta_min in (None, StrategyConfig().eta_relax):
        for k in sampled(cache):
            flat = cache.flat_graph_at_index(k, eta_min)
            reference = FlatGraph(cache.graph_at_index(k, eta_min), cache.epsilon)
            assert reference._n_shared == 0
            assert flat.nodes == reference.nodes
            assert neighbour_rows(flat) == neighbour_rows(reference), (eta_min, k)


def test_memos_stay_out_of_the_cyclic_gc(cache):
    """A tree's tree edges and the edge values that path walks read (a
    graph's own tails and etas and its shared layer's) are tuples of
    atomic values, which the collector untracks at its first pass; the
    node list and the name index are the routing CSR's, and the shared
    layer is one of the cache's memoized layers."""
    ks = sampled(cache)[:PAIR_WINDOW]
    trees = [cache.routing_tree_at_index(k, "ttu-0") for k in ks]
    graphs = [cache.flat_graph_at_index(k, StrategyConfig().eta_relax) for k in ks]
    gc.collect()
    for tree in trees:
        assert not gc.is_tracked(tree.flat_edges)
    layers = [id(layer) for layer in cache._layers.values()]
    for graph in graphs + [tree.graph for tree in trees]:
        for values in (graph._tails, graph._etas, graph._shared.tails, graph._shared.etas):
            assert not gc.is_tracked(values)
        assert graph.nodes is cache._csr.nodes
        assert graph._index is cache._csr._index
        assert id(graph._shared) in layers


class _Corrupted(LinkStateCache):
    """A cache whose build leaves one bad value behind."""

    def __init__(self, network, corrupt):
        self._corrupt = corrupt
        super().__init__(network, times_s=np.arange(0.0, 3600.0, 600.0))

    def _build(self):
        super()._build()
        self._corrupt(self)


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda c: c._eta.__setitem__((2, 5), np.nan), id="nan-eta"),
        pytest.param(lambda c: c._eta.__setitem__((0, 0), 1.5), id="eta-above-one"),
        pytest.param(lambda c: c._eta.__setitem__((3, 7), -0.1), id="negative-eta"),
        pytest.param(
            lambda c: c._pairs.__setitem__(4, ("ghost", c._pairs[4][1])), id="bad-endpoint"
        ),
    ],
)
def test_routing_csr_validates_at_construction(corrupt):
    """The checks a per-set ``from_arrays`` build ran on each row run
    once, at construction, over the static edge list and every stored
    eta — admitted or not."""
    network = build_qntn_ground_network()
    attach_hap(network, HAP(), paper_hap_fso())
    LinkStateCache(network, times_s=np.arange(0.0, 3600.0, 600.0))  # sound as built
    with pytest.raises(ValidationError):
        _Corrupted(network, corrupt)


def test_edge_keys_partition_samples_like_graphs(cache):
    ks = range(min(PAIR_WINDOW, cache.n_times))
    graphs = {k: cache.graph_at_index(k) for k in ks}
    keys = {k: cache.edge_key(k) for k in ks}
    for i in ks:
        for j in ks:
            if i < j:
                assert (keys[i] == keys[j]) == (graphs[i] == graphs[j]), (i, j)


def test_faults_change_the_columns(network):
    """Non-vacuous: the committed schedule suppresses links somewhere."""
    healthy = LinkStateCache(network)
    faulted = LinkStateCache(network, faults=example_plane())
    assert np.count_nonzero(faulted._gates & USABLE) < np.count_nonzero(healthy._gates & USABLE)


def test_duty_masked_static_columns_repeat_keys():
    """A HAP-only network: every sample inside one duty window shares
    one key and one routing table, and the two windows' keys differ from
    the off-duty key."""
    network = build_qntn_ground_network()
    attach_hap(
        network,
        HAP(operational_windows=[Interval(0.0, 1800.0), Interval(3600.0, 5400.0)]),
        paper_hap_fso(),
    )
    times = np.arange(0.0, 7200.0, 300.0)
    cache = LinkStateCache(network, times_s=times)
    on = [k for k, t in enumerate(times) if t < 1800.0 or 3600.0 <= t < 5400.0]
    off = [k for k in range(times.size) if k not in on]
    assert len({cache.edge_key(k) for k in on}) == 1
    assert len({cache.edge_key(k) for k in off}) == 1
    assert cache.edge_key(on[0]) != cache.edge_key(off[0])
    trees = {id(cache.routing_tree_at_index(k, "ttu-0")) for k in on}
    assert len(trees) == 1
