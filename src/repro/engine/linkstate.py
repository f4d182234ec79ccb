"""Time-indexed link-state cache over a quantum network.

:class:`LinkStateCache` precomputes, in vectorized NumPy passes over the
constellation :class:`~repro.orbits.ephemeris.Ephemeris` arrays, the
transmissivity and policy-admission series of every channel in a
:class:`~repro.network.topology.QuantumNetwork` — ground-satellite FSO,
inter-satellite FSO, ground-HAP FSO and fiber alike — on the movement
sheet's sample grid; a ground-satellite column is its site's budget
records (:func:`~repro.engine.budgets.compute_site_budget`, the one
ground-satellite link budget) scattered onto the grid. The series live
in two ``(grid sample, channel)`` arrays, ``eta`` and the gate byte
``gates`` (admission plus the bits denial attribution reads), so the
link state at one time index is one contiguous row. The same row serves
admission at any transmissivity threshold: the ``OPEN`` bit holds every
gate but the threshold, so the k-shortest rescue's relaxed graph is
``OPEN`` and ``eta >= eta_relax`` on the stored row. Link-graph
snapshots and shortest-path routing trees
(:meth:`FlatGraph.tree <repro.routing.bellman_ford.FlatGraph.tree>`,
Dijkstra over a CSR adjacency on the paper's ``1/(eta + eps)`` metric)
are memoized per time index; each edge set's CSR adjacency is a gather
of one :class:`~repro.routing.bellman_ford.RoutingCSR` over every
column, built and validated at construction. A graph gathers only its
ground-satellite columns and shares one
:class:`~repro.routing.bellman_ford.EdgeLayer` of the columns laid out
before them (fiber, ground-HAP, inter-satellite and platform-satellite)
with every edge set whose such columns and etas are the same, so the
memos hold the static fiber layer once. Trees are keyed on the weighted
feasible-edge set (a row's usable columns and their etas, as bytes), so
timesteps whose usable links (and etas) are identical — every timestep
of a fiber/HAP network, and frozen periods of a satellite pass — share
one set of trees instead of routing again.

The cache reproduces :meth:`QuantumNetwork.link_graph` to floating-point
noise (the scalar path multiplies 3x3 matrices one vector at a time, the
vectorized path uses one einsum); the equivalence suite in
``tests/engine/`` pins served/path decisions exactly and transmissivities
to 1e-12. Time is quantized to the ephemeris grid — queries between
samples resolve to the most recent sample, matching the satellites'
sample-and-hold motion.

The cache snapshots the network at construction: mutate the network (add
hosts/channels, change ephemerides) and the cache is stale — build a new
one (``NetworkSimulator.invalidate_cache`` does this for you).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.errors import ValidationError
from repro.network.hap import HAP
from repro.network.links import LinkPolicy, QuantumChannel
from repro.network.satellite import Satellite
from repro.network.topology import LinkGraph, QuantumNetwork
from repro.orbits.visibility import ELEVATED, OPEN, VISIBLE, geometry_gates
from repro.routing.bellman_ford import BellmanFordResult, EdgeLayer, FlatGraph, RoutingCSR
from repro.routing.metrics import DEFAULT_EPSILON

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plane import FaultPlane
    from repro.orbits.ephemeris import Ephemeris

__all__ = ["LinkStateCache"]

#: Weighted feasible-edge set of one grid sample: the usable column
#: indices' bytes followed by their etas' bytes (equal length, so equal
#: keys mean equal columns and bit-equal etas).
EdgeKey = bytes

# Bits of the gate byte, one per (grid sample, channel), with VISIBLE,
# ELEVATED (ground-to-platform columns only) and OPEN (every gate but the
# threshold: geometry, HAP duty, fault node and link gates) imported from
# repro.orbits.visibility. USABLE <=> OPEN and eta >= threshold.
#: post-fault admission: the link is in the graph.
USABLE = np.uint8(1)
#: pre-fault admission, duty mask included.
HEALTHY = np.uint8(2)
#: a healthy link before faults: usable until a fault plane, which can
#: only remove links, suppresses it.
ADMITTED = HEALTHY | USABLE


# Memoization accounting (import-time instruments; flag-check when off).
_TREE_HITS = obs.counter("linkstate.tree.hits")
_TREE_MISSES = obs.counter("linkstate.tree.misses")
_GRAPH_HITS = obs.counter("linkstate.graph.hits")
_GRAPH_MISSES = obs.counter("linkstate.graph.misses")


class LinkStateCache:
    """Vectorized per-time-index link graphs and routing tables.

    Args:
        network: the assembled host/channel topology (snapshotted).
        policy: link admission policy (paper defaults).
        epsilon: routing-metric epsilon for the memoized tables.
        times_s: explicit sample grid; defaults to the times of the first
            satellite's ephemeris, or ``[0.0]`` for all-static networks.
        faults: optional compiled :class:`~repro.faults.plane.FaultPlane`;
            when active, each block fill passes the columns an event
            touches through one :meth:`FaultPlane.apply_edges` call —
            eta, admission and the ``OPEN`` bits — the rule the direct
            path applies per scalar evaluation, so cached-vs-direct
            equivalence holds under any schedule.

    Raises:
        ValidationError: for a channel between a satellite and a mobile
            host that is not a satellite (no vectorized distance for it),
            or a stored eta outside [0, 1] (the routing CSR's checks).
    """

    def __init__(
        self,
        network: QuantumNetwork,
        *,
        policy: LinkPolicy | None = None,
        epsilon: float = DEFAULT_EPSILON,
        times_s: np.ndarray | None = None,
        faults: "FaultPlane | None" = None,
    ) -> None:
        self.network = network
        self.policy = policy or LinkPolicy()
        self.epsilon = epsilon
        self.faults = faults if faults is not None and not faults.is_noop else None
        self.times_s = self._resolve_grid(times_s)
        self._times_list: list[float] = self.times_s.tolist()
        self._host_names = list(network.host_names)
        #: denial attribution: every non-ground host in host order; its
        #: index is its slot in a gate vector (see :meth:`platform_verdicts`).
        self._platform_names = [h.name for h in network.hosts() if h.kind != "ground"]
        self._platform_slot = {name: i for i, name in enumerate(self._platform_names)}
        #: per ground site, a (2, n) int array: its ground-to-platform
        #: columns, then each column's platform slot. The build collects
        #: (column, slot) pairs; ``__init__`` converts them.
        self._site_columns: dict = {
            host.name: [] for host in network.hosts() if host.kind == "ground"
        }
        #: (grid sample, channel) transmissivity and gate byte, one column
        #: per channel; column c is channel ``_pairs[c]``.
        shape = (self.n_times, network.n_channels)
        self._eta = np.zeros(shape)
        self._gates = np.zeros(shape, dtype=np.uint8)
        self._pairs: list[tuple[str, str]] = []
        self._build()
        self._site_columns = {
            site: np.array(pairs, dtype=np.intp).reshape(-1, 2).T
            for site, pairs in self._site_columns.items()
        }
        #: every column as an edge both ways, validated once with every
        #: stored eta; each edge set's routing graph is a gather of it.
        self._csr = RoutingCSR(self._host_names, self._pairs, self._eta, epsilon)
        #: graph and edge-key memos: strict rows by grid sample ``k``,
        #: rows at another threshold by ``(k, eta_min)``.
        self._graphs: dict[int | tuple[int, float], LinkGraph] = {}
        self._keys: dict[int | tuple[int, float], EdgeKey] = {}
        self._trees: dict[EdgeKey, dict[str, BellmanFordResult]] = {}
        self._flat: dict[EdgeKey, FlatGraph] = {}
        #: shared layers of the flat graphs, keyed by the shared part of
        #: an edge key (see :meth:`_flat_graph`).
        self._layers: dict[EdgeKey, EdgeLayer] = {}
        # Per-index alias of the edge-keyed tree memo, so the request hot
        # path resolves trees by int index without an edge-key lookup.
        self._trees_at: dict[int, dict[str, BellmanFordResult]] = {}
        self._cursor = 0
        self.n_tree_builds = 0
        self.n_tree_hits = 0

    # --- construction -------------------------------------------------------

    def _resolve_grid(self, times_s: np.ndarray | None) -> np.ndarray:
        if times_s is not None:
            grid = np.ascontiguousarray(times_s, dtype=float)
            if grid.ndim != 1 or grid.size == 0:
                raise ValidationError("times_s must be a non-empty 1-D array")
            if grid.size > 1 and not np.all(np.diff(grid) > 0):
                raise ValidationError("times_s must be strictly increasing")
            return grid
        for host in self.network.hosts():
            if isinstance(host, Satellite):
                return host.ephemeris.times_s.copy()
        return np.array([0.0])

    def _grid_samples(self, eph: "Ephemeris") -> np.ndarray | None:
        """Ephemeris sample held at each grid time; ``None`` when the
        ephemeris is sampled on the grid itself."""
        if eph.times_s.shape == self.times_s.shape and np.array_equal(
            eph.times_s, self.times_s
        ):
            return None
        idx = np.searchsorted(eph.times_s, self.times_s, side="right") - 1
        return np.clip(idx, 0, eph.n_samples - 1)

    def _sample_positions(self, sat: Satellite) -> np.ndarray:
        """Sample-and-hold positions of one satellite on the grid, (T, 3)."""
        positions = sat.ephemeris.positions_ecef_km
        idx = self._grid_samples(sat.ephemeris)
        if idx is None:
            return positions[sat.ephemeris_index]
        return positions[sat.ephemeris_index, idx]

    def _hap_mask(self, channel: QuantumChannel) -> np.ndarray:
        """Duty-cycle availability of a channel over the grid, (T,)."""
        mask = np.ones(self.n_times, dtype=bool)
        for host in (channel.host_a, channel.host_b):
            if isinstance(host, HAP) and not host.always_operational:
                mask &= np.fromiter(
                    (host.is_operational(float(t)) for t in self.times_s),
                    dtype=bool,
                    count=self.n_times,
                )
        return mask

    def _build(self) -> None:
        """Lay out and fill one column per channel.

        Columns follow channel order, except that ground-satellite
        channels are grouped by (site, ephemeris, model, altitude) — each
        group one vectorized pass over (n_sats, n_times) — and placed
        after the rest, one contiguous block per group. Graph neighbour
        order follows column order. The columns before the first
        ground-satellite one (``_n_shared`` of them) make the flat
        graphs' shared layer.
        """
        groups: dict[tuple, list[tuple[QuantumChannel, Satellite]]] = {}
        for channel in self.network.channels():
            a, b = channel.host_a, channel.host_b
            sat_ends = [h for h in (a, b) if isinstance(h, Satellite)]
            if not sat_ends:
                self._add_static(channel)
            elif channel.is_ground_to_platform:
                ground = a if a.kind == "ground" else b
                sat = sat_ends[0]
                key = (
                    ground.name,
                    id(sat.ephemeris),
                    id(channel.model),
                    sat.nominal_altitude_km,
                )
                groups.setdefault(key, []).append((channel, sat))
            elif len(sat_ends) == 2:
                self._add_inter_satellite(channel, sat_ends[0], sat_ends[1])
            else:
                self._add_platform_satellite(channel, sat_ends[0])
        self._n_shared = len(self._pairs)
        for members in groups.values():
            self._add_ground_satellite_group(members)

    def _add_block(
        self, channels: list[QuantumChannel], eta: np.ndarray, gates: np.ndarray
    ) -> int:
        """Assign the next columns to ``channels`` and fill them over the
        whole grid; returns the first column.

        ``eta`` and ``gates`` broadcast to ``(len(channels), n_times)``;
        ``gates`` carries the geometry bits and ``OPEN`` before faults. A
        link is ``ADMITTED`` (``HEALTHY`` and ``USABLE``) where it is
        ``OPEN`` and its eta clears the threshold. Under a fault plane,
        the columns some event touches then pass through one
        :meth:`FaultPlane.apply_edges` call: it fades their eta,
        recomputes their ``USABLE`` from ``HEALTHY``, and its node/link
        gate clears ``OPEN`` where an endpoint is down or the link cut.
        Fades only lower the stored eta, so ``USABLE`` stays ``OPEN`` and
        ``eta >= threshold``.
        """
        c0, plane = len(self._pairs), self.faults
        self._pairs.extend(channel.names for channel in channels)
        threshold = self.policy.transmissivity_threshold
        is_open = (gates & OPEN) != 0
        gates = gates | (is_open & (eta >= threshold)) * ADMITTED
        cols = slice(c0, c0 + len(channels))
        self._eta[:, cols] = np.transpose(eta)
        self._gates[:, cols] = np.transpose(gates)
        edges = [] if plane is None else [plane.edge(channel) for channel in channels]
        faulted = [i for i, edge in enumerate(edges) if plane.touches(edge)]
        if not faulted:
            return c0
        cols = c0 + np.array(faulted, dtype=np.intp)
        gates = self._gates[:, cols].T
        eta, usable, up = plane.apply_edges(
            [edges[i] for i in faulted],
            self.times_s,
            self._eta[:, cols].T,
            (gates & HEALTHY) != 0,
            threshold,
        )
        is_open = ((gates & OPEN) != 0) & up
        gates = gates & ~(USABLE | OPEN) | usable * USABLE | is_open * OPEN
        self._eta[:, cols] = np.transpose(eta)
        self._gates[:, cols] = np.transpose(gates)
        return c0

    def _add_static(self, channel: QuantumChannel) -> None:
        """Fiber / ground-HAP channel: one evaluation, optional duty mask."""
        state = channel.evaluate_physics(float(self.times_s[0]), self.policy)
        gates = (
            geometry_gates(state.elevation_rad, self.policy.min_elevation_rad)
            if channel.is_ground_to_platform
            else OPEN
        )
        # Off duty, a HAP link is closed whatever its geometry.
        gates = np.where(self._hap_mask(channel), gates, gates & ~OPEN)
        eta = np.array([[state.transmissivity]])
        col = self._add_block([channel], eta, gates[None])
        if channel.is_ground_to_platform:
            a, b = channel.host_a, channel.host_b
            ground, platform = (a, b) if a.kind == "ground" else (b, a)
            self._site_columns[ground.name].append(
                (col, self._platform_slot[platform.name])
            )

    def _add_ground_satellite_group(
        self, members: list[tuple[QuantumChannel, Satellite]]
    ) -> None:
        """One site's link budget against many satellites: the site's
        :func:`~repro.engine.budgets.compute_site_budget` records (no
        store, no faults) scattered onto the members' rows — η, and the
        geometry bits of each record's elevation — and gathered onto the
        grid when the ephemeris is sampled elsewhere. A point the horizon
        cull dropped reads η 0 and no bits. The channels carry no duty
        mask (no HAP endpoint); faults act in :meth:`_add_block`.
        """
        # Function-level import: repro.engine.budgets pulls in the
        # repro.network package, which imports this module — at module
        # import time the name is not resolvable yet.
        from repro.engine.budgets import compute_site_budget

        channel0, sat0 = members[0]
        ground = (
            channel0.host_a if channel0.host_a.kind == "ground" else channel0.host_b
        )
        budget = compute_site_budget(
            ground,
            sat0.ephemeris,
            channel0.model,
            policy=self.policy,
            platform_altitude_km=sat0.nominal_altitude_km,
        )
        index, el = budget.points["index"], budget.points["elevation_rad"]
        gates = np.zeros(budget.shape, dtype=np.uint8)
        gates.reshape(-1)[index] = geometry_gates(el, self.policy.min_elevation_rad)
        rows = np.array([sat.ephemeris_index for _, sat in members])
        eta, gates = budget.transmissivity[rows], gates[rows]
        samples = self._grid_samples(sat0.ephemeris)
        if samples is not None:
            eta, gates = eta[:, samples], gates[:, samples]
        c0 = self._add_block([channel for channel, _ in members], eta, gates)
        self._site_columns[ground.name].extend(
            (c0 + i, self._platform_slot[sat.name]) for i, (_, sat) in enumerate(members)
        )

    def _add_inter_satellite(
        self, channel: QuantumChannel, sat_a: Satellite, sat_b: Satellite
    ) -> None:
        """ISL: vacuum link, distance-only budget (no elevation gate)."""
        delta = self._sample_positions(sat_a) - self._sample_positions(sat_b)
        dist = np.linalg.norm(delta, axis=-1)
        eta = np.asarray(channel.model.transmissivity(dist), dtype=float)
        self._add_block([channel], eta[None], OPEN)

    def _add_platform_satellite(self, channel: QuantumChannel, sat: Satellite) -> None:
        """Satellite to non-ground static platform (e.g. HAP): vacuum link."""
        other = channel.host_b if channel.host_a is sat else channel.host_a
        if other.is_mobile:
            raise ValidationError(
                f"channel {channel.names} pairs satellite {sat.name!r} with mobile "
                f"host {other.name!r}, which is not a satellite"
            )
        static = other.position_ecef_km(float(self.times_s[0]))
        dist = np.linalg.norm(self._sample_positions(sat) - static, axis=-1)
        eta = np.asarray(channel.model.transmissivity(dist), dtype=float)
        self._add_block([channel], eta[None], self._hap_mask(channel)[None] * OPEN)

    # --- time lookup --------------------------------------------------------

    @property
    def n_times(self) -> int:
        """Number of grid samples."""
        return self.times_s.size

    def time_index(self, t_s: float) -> int:
        """Index of the most recent grid sample at or before ``t_s`` (clamped).

        Clamping is two-sided: any ``t_s`` before the first sample
        resolves to index 0 (the grid's state is held backwards in time),
        and any ``t_s`` at or past the last sample resolves to the final
        index — out-of-range queries never raise.

        Raises:
            ValidationError: if ``t_s`` is NaN (it orders before or
                after no sample).
        """
        if t_s != t_s:
            raise ValidationError("time must not be NaN")
        idx = bisect_right(self._times_list, t_s) - 1
        return min(max(idx, 0), self.n_times - 1)

    def advance_index(self, t_s: float) -> int:
        """:meth:`time_index` with a monotonic cursor for streaming callers.

        A long-lived serving loop queries times that only move forward;
        keeping the last resolved index and bisecting only the remaining
        tail of the grid makes each advance O(log remaining) with a
        cursor==answer fast path, instead of re-searching the whole day.

        The result equals :meth:`time_index` for *every* input, clamping
        included: queries *behind* the cursor fall back to the full
        search and return the earlier index, but the cursor itself never
        moves backwards (a subsequent forward query resumes from the
        furthest point reached); queries before the grid clamp to index
        0 and queries at or beyond the last sample clamp to (and park
        the cursor at) the final index. Non-monotonic call sequences are
        therefore safe — only the fast path, not correctness, assumes
        forward motion. A NaN fails the fast path's comparisons and
        raises in :meth:`time_index`.

        The ``propagate`` span covers only a move of the cursor to a
        later sample, so a profile counts one activation per sample
        change, not one per query.
        """
        k = self._cursor
        times = self._times_list
        if times[k] <= t_s:
            if k + 1 >= len(times) or t_s < times[k + 1]:
                return k  # still inside the cursor's sample interval
            with obs.span("propagate"):
                k = min(bisect_right(times, t_s, k + 1) - 1, self.n_times - 1)
            self._cursor = k
            return k
        return self.time_index(t_s)

    # --- graphs & routing ---------------------------------------------------

    def graph(self, t_s: float) -> LinkGraph:
        """Usable-link adjacency at ``t_s`` (quantized to the grid)."""
        return self.graph_at_index(self.time_index(t_s))

    def _row(self, k: int, eta_min: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Admitted columns at grid sample ``k`` and their etas.

        ``eta_min=None`` reads the strict admission (``USABLE``); a
        threshold admits the ``OPEN`` columns whose eta reaches it,
        which is what a :class:`LinkStateCache` built under that
        threshold would mark ``USABLE``.
        """
        if not 0 <= k < self.n_times:
            raise ValidationError(f"time index {k} outside [0, {self.n_times})")
        if eta_min is None:
            cols = np.flatnonzero(self._gates[k] & USABLE)
        else:
            cols = np.flatnonzero(((self._gates[k] & OPEN) != 0) & (self._eta[k] >= eta_min))
        return cols, self._eta[k, cols]

    def graph_at_index(self, k: int, eta_min: float | None = None) -> LinkGraph:
        """Usable-link adjacency at grid sample ``k`` (memoized).

        ``eta_min`` admits at that transmissivity threshold instead of
        the policy's (the k-shortest rescue's relaxed graph; see
        :meth:`_row`). Edges are inserted in column order (see
        :meth:`_build`), which fixes each node's neighbour order.
        """
        memo = k if eta_min is None else (k, eta_min)
        if memo in self._graphs:
            _GRAPH_HITS.inc()
            return self._graphs[memo]
        _GRAPH_MISSES.inc()
        cols, etas = self._row(k, eta_min)
        graph: LinkGraph = {name: {} for name in self._host_names}
        pairs = self._pairs
        for c, value in zip(cols.tolist(), etas.tolist()):
            a, b = pairs[c]
            graph[a][b] = value
            graph[b][a] = value
        self._graphs[memo] = graph
        return graph

    def edge_key(self, k: int, eta_min: float | None = None) -> EdgeKey:
        """Canonical weighted feasible-edge set at grid sample ``k``.

        Two timesteps with equal keys have identical link graphs, hence
        identical optimal routes — the memoization invariant. Keying on
        the weighted set (not the bare edge set) is what keeps reused
        tables exact: equal topology with drifted etas gets a new table.
        The key is the usable column indices' bytes followed by their
        etas' bytes; a bytes object caches its hash. ``eta_min`` keys
        the row admitted at that threshold, as :meth:`graph_at_index`.
        """
        memo = k if eta_min is None else (k, eta_min)
        key = self._keys.get(memo)
        if key is None:
            cols, etas = self._row(k, eta_min)
            key = self._keys[memo] = cols.tobytes() + etas.tobytes()
        return key

    def _flat_graph(self, key: EdgeKey) -> FlatGraph:
        """:class:`FlatGraph` of a weighted edge set: the routing CSR
        gathered at the key's ground-satellite columns, with the key's
        etas, over the shared layer of its other columns.

        The columns and etas are read back from the key's bytes, so a
        sample's row is read once, by :meth:`edge_key`. The shared layer
        holds the admitted columns before the first ground-satellite one
        (:meth:`_build`) and is memoized by their column and eta bytes,
        so every edge set with the same such columns and etas (all the
        strict sets of a healthy QNTN day) shares one; a fade, cut or
        duty cycle on one of them keys a layer of its own. The CSR
        orders each node's neighbours by column, so the result routes
        like ``FlatGraph(self.graph_at_index(k, eta_min))`` for any
        sample ``k`` with this key.
        """
        n = len(key) // (np.dtype(np.intp).itemsize + np.dtype(float).itemsize)
        cols = np.frombuffer(key, dtype=np.intp, count=n)
        etas = np.frombuffer(key, dtype=float, offset=cols.nbytes)
        m = int(np.searchsorted(cols, self._n_shared))
        shared_key = key[: m * cols.itemsize] + key[cols.nbytes : cols.nbytes + m * etas.itemsize]
        layer = self._layers.get(shared_key)
        if layer is None:
            layer = self._layers[shared_key] = self._csr.layer(cols[:m], etas[:m])
        return self._csr.graph(cols[m:], etas[m:], layer)

    def flat_graph_at_index(self, k: int, eta_min: float | None = None) -> FlatGraph:
        """:class:`FlatGraph` of grid sample ``k`` (admitted at
        ``eta_min`` when given), memoized per weighted edge set
        (:meth:`edge_key`): the strict routing trees and the k-shortest
        rescue's Yen searches run over it. Rows with equal keys have
        equal graphs, whatever their threshold, so they share one."""
        key = self.edge_key(k, eta_min)
        flat = self._flat.get(key)
        if flat is None:
            flat = self._flat[key] = self._flat_graph(key)
        return flat

    def routing_tree_at_index(self, k: int, source: str) -> BellmanFordResult:
        """Memoized shortest-path tree at grid sample ``k``.

        The :class:`FlatGraph` (node indexing plus the CSR adjacency and
        per-edge costs) is itself memoized per weighted edge set, so
        routing N sources over one snapshot pays the graph conversion
        once instead of once per source. The tree is
        :meth:`FlatGraph.tree`'s Dijkstra, the kernel
        :func:`~repro.routing.bellman_ford.bellman_ford` runs on the
        dict graph, so both return equal trees; it gives each path's
        end-to-end eta too (:meth:`BellmanFordResult.eta_to`), so a
        served request needs no dict graph.
        """
        trees = self._trees_at.get(k)
        if trees is None:
            key = self.edge_key(k)
            trees = self._trees.setdefault(key, {})
            self._trees_at[k] = trees
        if source not in trees:
            with obs.span("route"):
                trees[source] = self.flat_graph_at_index(k).tree(source)
            self.n_tree_builds += 1
            _TREE_MISSES.inc()
        else:
            self.n_tree_hits += 1
            _TREE_HITS.inc()
        return trees[source]

    # --- denial attribution ---------------------------------------------------

    def platform_verdicts(
        self, source: str, destination: str, k: int
    ) -> tuple[list[str], np.ndarray] | None:
        """Per-platform gate verdicts of two ground sites at grid sample ``k``.

        Returns the platforms with a channel to both sites, in host
        order, and one ``(visible, elevation_ok, healthy, usable)`` bool
        row each, true where both channels pass that gate — the
        per-platform checks :meth:`NetworkSimulator._attribute_denial`
        otherwise makes with scalar channel evaluations, read here from
        the stored gate bytes: each site's ground-to-platform columns
        are scattered into one vector per platform slot and the two
        vectors ANDed. ``None`` when an endpoint is not a ground site
        (the caller then runs the scalar cascade).
        """
        if source not in self._site_columns or destination not in self._site_columns:
            return None
        row = self._gates[k]
        both = np.full(len(self._platform_names), 0xFF, dtype=np.uint8)
        linked = np.ones(both.size, dtype=bool)
        for site in (source, destination):
            cols, slots = self._site_columns[site]
            gates = np.zeros_like(both)
            gates[slots] = row[cols]
            both &= gates
            has = np.zeros_like(linked)
            has[slots] = True
            linked &= has
        slots = np.flatnonzero(linked)
        both = both[slots]
        elevated = VISIBLE | ELEVATED
        verdicts = np.stack(
            (
                (both & VISIBLE) != 0,
                (both & elevated) == elevated,
                (both & HEALTHY) != 0,
                (both & USABLE) != 0,
            ),
            axis=1,
        )
        return [self._platform_names[i] for i in slots.tolist()], verdicts

    def denial_gates(
        self, source: str, destination: str, k: int
    ) -> tuple[bool, bool, bool, bool] | None:
        """The denial cause cascade's gates at grid sample ``k``.

        Returns ``(visible, elevation_ok, healthy_usable, usable)``, each
        true when some platform passes that gate at both endpoints
        (:meth:`platform_verdicts`). ``None`` when an endpoint is not a
        ground site.
        """
        found = self.platform_verdicts(source, destination, k)
        if found is None:
            return None
        visible, elevated, healthy, usable = found[1].any(axis=0).tolist()
        return visible, elevated, healthy, usable

    # --- diagnostics --------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LinkStateCache({len(self._pairs)} channels, {self.n_times} samples, "
            f"{len(self._trees)} edge sets memoized)"
        )
