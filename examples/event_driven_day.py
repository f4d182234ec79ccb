#!/usr/bin/env python
"""Event-driven day: Poisson request arrivals against both architectures.

The paper evaluates batched requests at fixed time steps; this example
replays a day of *randomly timed* arrivals through the discrete-event
timeline and shows the hour-by-hour service profile — where the
constellation's outages actually land on the clock.

Run time: ~1 minute (36 satellites, 2-minute movement cadence).
"""

import numpy as np

from repro.channels.presets import paper_hap_fso, paper_satellite_fso
from repro.network.hap import HAP
from repro.network.simulator import NetworkSimulator
from repro.network.topology import attach_hap, attach_satellites, build_qntn_ground_network
from repro.network.workload import run_poisson_workload
from repro.orbits.ephemeris import generate_movement_sheet
from repro.orbits.walker import qntn_constellation
from repro.reporting.tables import render_table

RATE_HZ = 1.0 / 300.0  # one request every five minutes on average
DURATION_S = 86400.0


def hour_profile(report) -> list[tuple[int, int, int]]:
    """(hour, arrivals, served) rows."""
    rows = []
    for hour in range(24):
        lo, hi = hour * 3600.0, (hour + 1) * 3600.0
        arrivals = [o for o in report.outcomes if lo <= o.t_s < hi]
        rows.append((hour, len(arrivals), sum(o.served for o in arrivals)))
    return rows


def main() -> None:
    print("Building networks (36 satellites @120 s cadence, plus the HAP)...")
    ephemeris = generate_movement_sheet(
        qntn_constellation(36), duration_s=DURATION_S, step_s=120.0
    )
    sat_net = build_qntn_ground_network()
    attach_satellites(sat_net, ephemeris, paper_satellite_fso())
    sat_sim = NetworkSimulator(sat_net)

    hap_net = build_qntn_ground_network()
    attach_hap(hap_net, HAP(), paper_hap_fso())
    hap_sim = NetworkSimulator(hap_net)

    print("Replaying one day of Poisson arrivals (~288 requests)...")
    sat_report = run_poisson_workload(
        sat_sim, rate_hz=RATE_HZ, duration_s=DURATION_S, seed=7
    )
    hap_report = run_poisson_workload(
        hap_sim, rate_hz=RATE_HZ, duration_s=DURATION_S, seed=7
    )

    print()
    print(
        render_table(
            ["architecture", "arrivals", "served", "served %", "mean fidelity"],
            [
                (
                    "Space-Ground (36 sats)",
                    sat_report.n_requests,
                    sum(o.served for o in sat_report.outcomes),
                    f"{sat_report.served_fraction:.1%}",
                    f"{sat_report.mean_fidelity:.4f}",
                ),
                (
                    "Air-Ground",
                    hap_report.n_requests,
                    sum(o.served for o in hap_report.outcomes),
                    f"{hap_report.served_fraction:.1%}",
                    f"{hap_report.mean_fidelity:.4f}",
                ),
            ],
            title="EVENT-DRIVEN DAY (identical arrival process, seed 7)",
        )
    )

    print("\nHour-by-hour profile of the space-ground service:")
    bars = []
    for hour, arrivals, served in hour_profile(sat_report):
        frac = served / arrivals if arrivals else 0.0
        bars.append(f"  {hour:02d}h  {'#' * int(round(frac * 20)):<20s} "
                    f"{served}/{arrivals}")
    print("\n".join(bars))
    print("\n=> outages are not clustered at any hour: the 53 deg Walker shell")
    print("   spreads its gaps uniformly across the day, so adding more")
    print("   satellites (or the HAP) is the only way to close them.")


if __name__ == "__main__":
    main()
