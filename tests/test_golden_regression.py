"""Golden regression pins against the committed benchmark results.

The CSVs under ``benchmarks/results/`` are the repo's reproduction of the
paper's headline numbers (Table III, Figs. 5-8). These tests pin those
artifacts — and a couple of live recomputations — against the paper
values with documented tolerances, so a silent physics or sweep
regression can't drift the reproduction without failing CI.

Paper targets: coverage 55.17 %, served 57.75 %, satellite fidelity 0.96
(reproduced at 0.92 with a documented level offset, see EXPERIMENTS.md),
HAP fidelity 0.98, and F(eta=0.7) > 0.9 — the basis of the paper's
eta >= 0.7 admission threshold.
"""

import csv
import math
from pathlib import Path

import pytest

from repro.network.links import LinkPolicy
from repro.quantum.fidelity import entanglement_fidelity_from_transmissivity

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def read_series(filename):
    """Parse a results CSV: '#' comment lines, then a header, then rows."""
    path = RESULTS / filename
    rows = [
        line for line in path.read_text().splitlines() if not line.startswith("#")
    ]
    reader = csv.DictReader(rows)
    columns: dict[str, list[float]] = {name: [] for name in reader.fieldnames}
    for record in reader:
        for name, value in record.items():
            columns[name].append(float(value))
    return columns


class TestFig6CoverageGolden:
    def test_paper_value_at_108(self):
        series = read_series("fig6_coverage_vs_satellites.csv")
        at_108 = dict(zip(series["n_satellites"], series["coverage_pct"]))[108.0]
        assert at_108 == pytest.approx(55.17, abs=2.0)

    def test_monotone_in_constellation_size(self):
        series = read_series("fig6_coverage_vs_satellites.csv")
        pcts = series["coverage_pct"]
        assert all(b >= a for a, b in zip(pcts, pcts[1:]))
        assert series["n_satellites"] == sorted(series["n_satellites"])


class TestFig7ServedGolden:
    def test_paper_value_at_108(self):
        series = read_series("fig7_served_requests_vs_satellites.csv")
        at_108 = dict(zip(series["n_satellites"], series["served_pct"]))[108.0]
        assert at_108 == pytest.approx(57.75, abs=2.0)

    def test_served_grows_with_constellation(self):
        series = read_series("fig7_served_requests_vs_satellites.csv")
        served = series["served_pct"]
        assert served[-1] > served[0]
        assert all(0.0 <= s <= 100.0 for s in served)


class TestFig8FidelityGolden:
    def test_value_at_108_within_documented_offset(self):
        series = read_series("fig8_fidelity_vs_satellites.csv")
        at_108 = dict(zip(series["n_satellites"], series["mean_fidelity"]))[108.0]
        # Paper reports 0.96; the reproduction sits at 0.92 with a
        # documented level offset (EXPERIMENTS.md) — pin both bounds.
        assert at_108 == pytest.approx(0.96, abs=0.05)
        assert at_108 > 0.9

    def test_series_stays_above_threshold_floor(self):
        """Every admitted link has eta >= 0.7, so F >= (1+sqrt(0.7))/2 holds
        per link; multi-hop paths dilute it but the mean stays near 0.9."""
        series = read_series("fig8_fidelity_vs_satellites.csv")
        assert all(f > 0.85 for f in series["mean_fidelity"])


class TestFig5ThresholdGolden:
    def test_f_at_paper_threshold(self):
        series = read_series("fig5_fidelity_vs_transmissivity.csv")
        # The eta grid carries float noise (0.7000000000000001) — look up
        # the sample nearest the paper threshold.
        at_07 = min(
            zip(series["transmissivity"], series["fidelity"]),
            key=lambda point: abs(point[0] - 0.7),
        )[1]
        expected = (1.0 + math.sqrt(0.7)) / 2.0
        assert at_07 == pytest.approx(expected, abs=1e-6)
        assert at_07 > 0.9

    def test_threshold_is_paper_default_policy(self):
        assert LinkPolicy().transmissivity_threshold == pytest.approx(0.7)
        assert LinkPolicy().min_elevation_rad == pytest.approx(math.pi / 9)

    def test_series_monotone_and_anchored(self):
        series = read_series("fig5_fidelity_vs_transmissivity.csv")
        fids = series["fidelity"]
        assert fids[0] == pytest.approx(0.5)
        assert all(b >= a for a, b in zip(fids, fids[1:]))

    def test_min_eta_reaching_09_below_paper_threshold(self):
        """Fig. 5's argument: eta = 0.7 is past the F = 0.9 crossing."""
        series = read_series("fig5_fidelity_vs_transmissivity.csv")
        crossing = min(
            eta
            for eta, f in zip(series["transmissivity"], series["fidelity"])
            if f >= 0.9
        )
        assert crossing <= 0.7

    def test_closed_form_matches_csv(self):
        series = read_series("fig5_fidelity_vs_transmissivity.csv")
        for eta, f in zip(series["transmissivity"], series["fidelity"]):
            assert f == pytest.approx(
                float(entanglement_fidelity_from_transmissivity(eta)), abs=1e-12
            )


class TestTable3HapGolden:
    def test_hap_fidelity_near_paper_value(self, hap_simulator):
        """Table III: the HAP bridges inter-LAN pairs at ~0.98 fidelity."""
        outcome = hap_simulator.serve_request("ttu-0", "epb-3", 0.0)
        assert outcome.served
        assert outcome.path == ("ttu-0", "hap-0", "epb-3")
        assert outcome.fidelity == pytest.approx(0.98, abs=0.01)


class TestMultipathGolden:
    """Live pin: k-shortest rescue lifts Fig. 7 service above the paper
    baseline (DESIGN.md §16).

    The strict protocol reproduces 57.75 % served at 108 satellites; the
    multipath strategy rescues a further ~15 % of requests by distilling
    pairs of relaxed-threshold paths, and may never lose a
    strictly-served request. Both properties are recomputed here through
    the production ``cached`` engine from the ephemeris, so a strategy
    regression cannot hide behind a stale CSV.
    """

    @pytest.fixture(scope="class")
    def fig7_multipath(self):
        from repro.core.evaluation import evaluation_time_indices
        from repro.core.requests import generate_requests
        from repro.data.ground_nodes import all_ground_nodes
        from repro.network.workload import TimedRequest
        from repro.orbits.ephemeris import generate_movement_sheet
        from repro.orbits.walker import qntn_constellation
        from repro.routing.strategies import StrategyConfig
        from repro.serve import build_engine

        ephemeris = generate_movement_sheet(
            qntn_constellation(108), duration_s=86400.0, step_s=30.0
        )
        engine = build_engine(
            "cached",
            ephemeris,
            attribute_denials=False,
            strategy=StrategyConfig(router="k-shortest", k=2),
        )
        pairs = [r.endpoints for r in generate_requests(all_ground_nodes(), 100, seed=7)]
        steps = evaluation_time_indices(ephemeris.times_s.size, 100)
        stream = [
            TimedRequest(i * len(pairs) + j, float(ephemeris.times_s[k]), src, dst)
            for i, k in enumerate(steps)
            for j, (src, dst) in enumerate(pairs)
        ]
        outcomes = engine.serve_batch(stream)
        n_strict = sum(o.served and not o.purified for o in outcomes)
        n_served = sum(o.served for o in outcomes)
        return 100.0 * n_strict / len(stream), 100.0 * n_served / len(stream)

    def test_baseline_reproduces_the_paper_pin(self, fig7_multipath):
        """Strict (unpurified) service: observed 58.72 %."""
        baseline_pct, _ = fig7_multipath
        assert baseline_pct == pytest.approx(57.75, abs=2.0)

    def test_multipath_strictly_beats_the_baseline(self, fig7_multipath):
        baseline_pct, multipath_pct = fig7_multipath
        assert multipath_pct > baseline_pct

    def test_multipath_clears_the_paper_pin(self, fig7_multipath):
        """The new golden number: rescue service sits above 57.75 %
        (observed 73.60 % — pinned with the same ±2 band as Fig. 7)."""
        _, multipath_pct = fig7_multipath
        assert multipath_pct > 57.75
        assert multipath_pct == pytest.approx(73.84, abs=2.0)
