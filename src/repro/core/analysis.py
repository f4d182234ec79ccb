"""Vectorized architecture analysis engines.

The object-level :class:`~repro.network.simulator.NetworkSimulator`
evaluates one channel at a time, which is exact but Python-loop bound.
The paper's sweeps (18 constellation sizes x 2880 samples x 31 ground
nodes) need the array form implemented here: per-site transmissivity
matrices of shape ``(n_sats, n_times)`` computed in single NumPy passes.

The two views agree because, in the QNTN topology, the Bellman–Ford
optimum between nodes of different LANs is always a two-hop relay path
``src -> platform -> dst`` (intra-LAN fiber detours only ever add cost —
every ground node carries its own FSO terminal, and a same-LAN neighbour
sees the same platform geometry to within metres). The test suite checks
this equivalence against the object-level simulator sample by sample.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.channels.fso import FSOChannelModel
from repro.data.ground_nodes import GroundNode
from repro.engine.budgets import LinkBudgetTable, SiteLinkBudget
from repro.errors import ValidationError
from repro.network.links import LinkPolicy
from repro.orbits.ephemeris import Ephemeris
from repro.orbits.visibility import elevation_and_range
from repro.routing.metrics import DEFAULT_EPSILON

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plane import FaultPlane

__all__ = ["SiteLinkBudget", "SpaceGroundAnalysis", "AirGroundAnalysis"]


class SpaceGroundAnalysis:
    """Array-form analysis of a constellation serving the QNTN LANs.

    Args:
        ephemeris: constellation movement sheet.
        sites: ground nodes (must carry LAN names in ``network``).
        fso_model: ground-satellite channel model.
        policy: link admission policy.
        platform_altitude_km: nominal constellation altitude for slant
            extinction integrals.
        budgets: optional precomputed
            :class:`~repro.engine.budgets.LinkBudgetTable` to read link
            budgets from instead of computing them here — lets multiple
            analyses (e.g. the coverage and service passes of one sweep)
            share a single vectorized geometry pass. Must cover the same
            ephemeris, sites, model and policy.
        faults: optional compiled :class:`~repro.faults.plane.FaultPlane`
            forwarded to a self-built budget table; ignored when
            ``budgets`` is supplied (the shared table already carries —
            or deliberately omits — the fault plane).
    """

    def __init__(
        self,
        ephemeris: Ephemeris,
        sites: list[GroundNode],
        fso_model: FSOChannelModel,
        *,
        policy: LinkPolicy | None = None,
        platform_altitude_km: float = 500.0,
        budgets: LinkBudgetTable | None = None,
        faults: "FaultPlane | None" = None,
    ) -> None:
        if not sites:
            raise ValidationError("analysis needs at least one ground site")
        if any(not s.network for s in sites):
            raise ValidationError("every site must belong to a named LAN")
        self.ephemeris = ephemeris
        self.sites = list(sites)
        self.fso_model = fso_model
        self.policy = policy or LinkPolicy()
        self.platform_altitude_km = platform_altitude_km
        if budgets is not None and budgets.ephemeris.n_samples != ephemeris.n_samples:
            raise ValidationError(
                f"budget table covers {budgets.ephemeris.n_samples} samples, "
                f"analysis needs {ephemeris.n_samples}"
            )
        self._table = budgets or LinkBudgetTable(
            ephemeris,
            self.sites,
            fso_model,
            policy=self.policy,
            platform_altitude_km=platform_altitude_km,
            faults=faults,
        )

    @property
    def table(self) -> LinkBudgetTable:
        """The backing :class:`~repro.engine.budgets.LinkBudgetTable`."""
        return self._table

    @property
    def times_s(self) -> np.ndarray:
        """Sample times of the movement sheet."""
        return self.ephemeris.times_s

    @property
    def n_times(self) -> int:
        """Number of time samples."""
        return self.ephemeris.n_samples

    @property
    def lans(self) -> list[str]:
        """LAN names present among the sites, in first-seen order."""
        seen: list[str] = []
        for site in self.sites:
            if site.network not in seen:
                seen.append(site.network)
        return seen

    def lan_sites(self, lan: str) -> list[GroundNode]:
        """Sites belonging to ``lan``."""
        members = [s for s in self.sites if s.network == lan]
        if not members:
            raise ValidationError(f"unknown LAN {lan!r}")
        return members

    def site(self, name: str) -> GroundNode:
        """Site lookup by node name."""
        for s in self.sites:
            if s.name == name:
                return s
        raise ValidationError(f"unknown site {name!r}")

    # --- budgets -----------------------------------------------------------------

    def budget(self, site_name: str) -> SiteLinkBudget:
        """Link-budget matrices for one site (computed once, memoized).

        The vectorized pass itself lives in
        :func:`repro.engine.budgets.compute_site_budget`; the analysis
        object delegates to its (possibly shared) budget table. Unknown
        site names are rejected with the analysis' own lookup so the
        error message stays consistent.
        """
        self.site(site_name)
        return self._table.budget(site_name)

    def lan_usable(self, lan: str) -> np.ndarray:
        """Mask ``(n_sats, n_times)``: satellite usable to *some* node of ``lan``."""
        members = self.lan_sites(lan)
        out = self.budget(members[0].name).usable.copy()
        for site in members[1:]:
            out |= self.budget(site.name).usable
        return out

    # --- connectivity & coverage ------------------------------------------------------

    def pair_connected(self, lan_a: str, lan_b: str) -> np.ndarray:
        """Mask ``(n_times,)``: some satellite bridges the two LANs."""
        return (self.lan_usable(lan_a) & self.lan_usable(lan_b)).any(axis=0)

    def all_pairs_connected(self) -> np.ndarray:
        """Mask ``(n_times,)``: every LAN pair is bridged (paper coverage)."""
        lans = self.lans
        out = np.ones(self.n_times, dtype=bool)
        for i, a in enumerate(lans):
            for b in lans[i + 1 :]:
                out &= self.pair_connected(a, b)
        return out

    def cumulative_all_pairs_connected(self) -> np.ndarray:
        """Coverage masks for every constellation-prefix size at once.

        Row ``k`` of the returned ``(n_sats, n_times)`` boolean array is
        the all-LAN-pairs-connected mask when only the first ``k+1``
        satellites of the ephemeris are deployed. Because the paper adds
        satellites incrementally (Table II prefixes), the entire Fig. 6
        sweep reduces to cumulative ORs over the satellite axis — one
        link-budget pass instead of one per constellation size.
        """
        lans = self.lans
        lan_masks = {lan: self.lan_usable(lan) for lan in lans}
        out: np.ndarray | None = None
        for i, a in enumerate(lans):
            for b in lans[i + 1 :]:
                pair_cum = np.logical_or.accumulate(lan_masks[a] & lan_masks[b], axis=0)
                out = pair_cum if out is None else (out & pair_cum)
        if out is None:
            raise ValidationError("cumulative coverage needs at least two LANs")
        return out

    # --- routing-equivalent request service -----------------------------------------------

    def best_relay(
        self,
        src_name: str,
        dst_name: str,
        time_index: int,
        epsilon: float = DEFAULT_EPSILON,
        *,
        n_satellites: int | None = None,
    ) -> tuple[int, float] | None:
        """Best relay satellite for a request at one sample time.

        Minimises the Bellman–Ford two-hop cost
        ``1/(eta_src + eps) + 1/(eta_dst + eps)`` over satellites usable
        to both endpoints.

        Args:
            n_satellites: restrict to the first n satellites of the
                ephemeris (constellation-prefix sweeps); None = all.

        Returns:
            ``(satellite_index, path_transmissivity)`` or ``None`` when no
            satellite qualifies.
        """
        bs = self.budget(src_name)
        bd = self.budget(dst_name)
        n = bs.usable.shape[0] if n_satellites is None else n_satellites
        ok = bs.usable[:n, time_index] & bd.usable[:n, time_index]
        if not np.any(ok):
            return None
        eta_s = bs.transmissivity[:n, time_index]
        eta_d = bd.transmissivity[:n, time_index]
        cost = np.where(ok, 1.0 / (eta_s + epsilon) + 1.0 / (eta_d + epsilon), np.inf)
        best = int(np.argmin(cost))
        return best, float(eta_s[best] * eta_d[best])

    def serve(
        self,
        requests: list[tuple[str, str]],
        time_index: int,
        epsilon: float = DEFAULT_EPSILON,
        *,
        n_satellites: int | None = None,
    ) -> list[float | None]:
        """Path transmissivity per request at a sample time (None = unserved)."""
        out: list[float | None] = []
        for src, dst in requests:
            hit = self.best_relay(
                src, dst, time_index, epsilon, n_satellites=n_satellites
            )
            out.append(None if hit is None else hit[1])
        return out

    def request_detail(
        self,
        src_name: str,
        dst_name: str,
        time_index: int,
        epsilon: float = DEFAULT_EPSILON,
        *,
        n_satellites: int | None = None,
        max_candidates: int = 12,
    ) -> dict:
        """Flight-recorder view of one request: gate cascade + chosen relay.

        Evaluates the same budget matrices :meth:`best_relay` reads and
        reports every candidate platform's per-gate outcome (visibility,
        elevation >= policy minimum, eta >= policy threshold, at both
        endpoints), the relay actually chosen, and — when the request
        goes unserved — the canonical denial cause from
        :func:`repro.obs.trace.classify_denial`. The served/relay
        decision is identical to :meth:`serve` by construction (same
        ``usable`` mask, same cost argmin).
        """
        from repro.obs.trace import classify_denial

        bs = self.budget(src_name)
        bd = self.budget(dst_name)
        n = bs.usable.shape[0] if n_satellites is None else n_satellites
        el_s = bs.elevation_rad[:n, time_index]
        el_d = bd.elevation_rad[:n, time_index]
        eta_s = bs.transmissivity[:n, time_index]
        eta_d = bd.transmissivity[:n, time_index]
        # The gate cascade nests: visibility uses the budget pass' own
        # above-horizon cut (el > 1e-3, engine.budgets), elevation adds
        # the policy minimum, and usable-at-both-ends is exactly the mask
        # best_relay optimises over.
        visible = (el_s > 1e-3) & (el_d > 1e-3)
        elev_ok = (
            visible
            & (el_s >= self.policy.min_elevation_rad)
            & (el_d >= self.policy.min_elevation_rad)
        )
        usable = bs.usable[:n, time_index] & bd.usable[:n, time_index]
        # Budgets derived through a fault plane carry the pre-fault mask;
        # transmissivity denials are judged on healthy physics and a
        # healthy-but-suppressed candidate set attributes to faults.
        faulted_run = bs.usable_healthy is not None or bd.usable_healthy is not None
        healthy = (
            bs.healthy_usable[:n, time_index] & bd.healthy_usable[:n, time_index]
            if faulted_run
            else usable
        )

        served = bool(np.any(usable))
        relay_index: int | None = None
        relay: str | None = None
        path_eta = 0.0
        hop_etas: list[float] = []
        if served:
            cost = np.where(
                usable, 1.0 / (eta_s + epsilon) + 1.0 / (eta_d + epsilon), np.inf
            )
            relay_index = int(np.argmin(cost))
            relay = self.ephemeris.names[relay_index]
            hop_etas = [float(eta_s[relay_index]), float(eta_d[relay_index])]
            path_eta = float(eta_s[relay_index] * eta_d[relay_index])
            cause = None
        else:
            cause = classify_denial(
                bool(np.any(visible)),
                bool(np.any(elev_ok)),
                bool(np.any(healthy)),
                fault_blocked=bool(np.any(healthy)),
            )

        candidates = []
        for i in np.flatnonzero(visible)[:max_candidates]:
            entry = {
                "platform": self.ephemeris.names[int(i)],
                "eta_src": float(eta_s[i]),
                "eta_dst": float(eta_d[i]),
                "elevation_src_rad": float(el_s[i]),
                "elevation_dst_rad": float(el_d[i]),
                "visible": True,
                "elevation_ok": bool(elev_ok[i]),
                "usable": bool(usable[i]),
            }
            if faulted_run:
                entry["faulted"] = bool(healthy[i] and not usable[i])
            candidates.append(entry)
        return {
            "served": served,
            "relay": relay,
            "relay_index": relay_index,
            "path_eta": path_eta,
            "hop_etas": hop_etas,
            "cause": cause,
            "source_lan": self.site(src_name).network,
            "destination_lan": self.site(dst_name).network,
            "candidates": candidates,
            "candidate_counts": {
                "platforms": int(n),
                "visible": int(np.count_nonzero(visible)),
                "elevation_ok": int(np.count_nonzero(elev_ok)),
                "usable": int(np.count_nonzero(usable)),
                **(
                    {"healthy_usable": int(np.count_nonzero(healthy))}
                    if faulted_run
                    else {}
                ),
            },
        }


class AirGroundAnalysis:
    """Array-form analysis of the single-HAP architecture.

    The HAP hovers, so per-site transmissivities are time-independent
    scalars; only the optional duty cycle makes service time-dependent.

    Args:
        sites: ground nodes with LAN names.
        fso_model: HAP-ground channel model.
        hap_lat_deg / hap_lon_deg / hap_alt_km: hover position.
        policy: link admission policy.
        operational_mask: optional boolean availability per sample time
            (the paper's ideal case is all-True).
        times_s: sample times matching ``operational_mask``.
        site_geometry: optional precomputed ``site name -> (elevation_rad,
            range_km)`` mapping. The HAP hovers, so this geometry is
            identical across e.g. every Monte-Carlo weather trial; passing
            it skips the per-site ECEF transforms (the weather study
            computes it once and ships it to workers via shared memory).
    """

    def __init__(
        self,
        sites: list[GroundNode],
        fso_model: FSOChannelModel,
        *,
        hap_lat_deg: float,
        hap_lon_deg: float,
        hap_alt_km: float,
        policy: LinkPolicy | None = None,
        operational_mask: np.ndarray | None = None,
        times_s: np.ndarray | None = None,
        site_geometry: dict[str, tuple[float, float]] | None = None,
    ) -> None:
        if not sites:
            raise ValidationError("analysis needs at least one ground site")
        self.sites = list(sites)
        self.fso_model = fso_model
        self.policy = policy or LinkPolicy()
        self.hap_lat_deg = hap_lat_deg
        self.hap_lon_deg = hap_lon_deg
        self.hap_alt_km = hap_alt_km
        if times_s is None:
            times_s = np.array([0.0])
        self.times_s = np.asarray(times_s, dtype=float)
        if operational_mask is None:
            operational_mask = np.ones(self.times_s.size, dtype=bool)
        self.operational_mask = np.asarray(operational_mask, dtype=bool)
        if self.operational_mask.shape != self.times_s.shape:
            raise ValidationError("operational_mask must match times_s in shape")
        self._eta: dict[str, float] = {}
        self._usable: dict[str, bool] = {}
        self._geometry = dict(site_geometry) if site_geometry else {}

    def site_geometry(self, site_name: str) -> tuple[float, float]:
        """``(elevation_rad, range_km)`` of one site's HAP link.

        Computed from the hover position on first use, or served from the
        precomputed ``site_geometry`` mapping when one was supplied.
        """
        if site_name not in self._geometry:
            from repro.orbits.frames import geodetic_to_ecef

            site = next((s for s in self.sites if s.name == site_name), None)
            if site is None:
                raise ValidationError(f"unknown site {site_name!r}")
            hap_pos = geodetic_to_ecef(
                math.radians(self.hap_lat_deg),
                math.radians(self.hap_lon_deg),
                self.hap_alt_km,
            )
            _, el, rng = elevation_and_range(
                site.lat_rad, site.lon_rad, site.alt_km, hap_pos[None, :]
            )
            self._geometry[site_name] = (float(el[0]), float(rng[0]))
        return self._geometry[site_name]

    def transmissivity(self, site_name: str) -> float:
        """HAP-link transmissivity for one site (time-independent)."""
        if site_name not in self._eta:
            el_f, rng_f = self.site_geometry(site_name)
            if el_f <= 0:
                eta = 0.0
            else:
                eta = float(
                    np.asarray(self.fso_model.transmissivity(rng_f, el_f, self.hap_alt_km))
                )
            self._eta[site_name] = eta
            self._usable[site_name] = self.policy.admits(eta, el_f, True)
        return self._eta[site_name]

    def usable(self, site_name: str) -> bool:
        """Whether the site's HAP link passes the admission policy."""
        self.transmissivity(site_name)
        return self._usable[site_name]

    def all_pairs_connected(self) -> np.ndarray:
        """Coverage mask over ``times_s`` (limited only by the duty cycle)."""
        static = all(self.usable(s.name) for s in self.sites)
        return self.operational_mask & static

    def serve(
        self, requests: list[tuple[str, str]], time_index: int = 0
    ) -> list[float | None]:
        """Path transmissivity per request (None = unserved)."""
        out: list[float | None] = []
        operational = bool(self.operational_mask[time_index])
        for src, dst in requests:
            if not operational or not (self.usable(src) and self.usable(dst)):
                out.append(None)
            else:
                out.append(self.transmissivity(src) * self.transmissivity(dst))
        return out
