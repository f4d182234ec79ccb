"""End-to-end integration tests across the whole stack.

These exercise the public API the way the examples and benchmarks do,
with reduced sizes so the suite stays fast.
"""

import numpy as np
import pytest

from repro import (
    AirGroundArchitecture,
    SpaceGroundArchitecture,
    compare_architectures,
    transmissivity_threshold_experiment,
)
from repro.core import run_constellation_sweep
from repro.reporting.tables import render_table_iii


@pytest.fixture(scope="module")
def day_ephemeris():
    from repro.orbits.ephemeris import generate_movement_sheet
    from repro.orbits.walker import qntn_constellation

    return generate_movement_sheet(qntn_constellation(36), duration_s=86400.0, step_s=300.0)


class TestFigureFivePipeline:
    def test_threshold_workflow(self):
        result = transmissivity_threshold_experiment(step=0.01)
        # The paper chooses 0.7 because it clears the 0.9 requirement.
        assert result.threshold <= 0.7
        idx_07 = int(round(0.7 / 0.01))
        assert result.fidelities[idx_07] > 0.9


class TestCoveragePipeline:
    def test_sweep_shapes_and_monotonicity(self, day_ephemeris):
        sizes = [6, 12, 24, 36]
        sweep = run_constellation_sweep(
            sizes, ephemeris=day_ephemeris, n_requests=2, n_time_steps=2
        )
        results = [point.coverage for point in sweep.points]
        assert [r.n_satellites for r in results] == sizes
        percentages = [r.percentage for r in results]
        assert percentages == sorted(percentages)
        assert percentages[-1] > percentages[0]


class TestComparisonPipeline:
    def test_table_iii_renders(self, day_ephemeris):
        space = SpaceGroundArchitecture(
            36, duration_s=86400.0, step_s=300.0, ephemeris=day_ephemeris
        )
        air = AirGroundArchitecture(duration_s=86400.0, step_s=300.0)
        rows = compare_architectures(
            n_requests=10, n_time_steps=10, seed=1, space=space, air=air
        )
        text = render_table_iii(rows)
        assert "Space-Ground" in text and "Air-Ground" in text

    def test_coverage_approximates_served_fraction(self, day_ephemeris):
        """Served % tracks coverage %: requests succeed when covered."""
        space = SpaceGroundArchitecture(
            36, duration_s=86400.0, step_s=300.0, ephemeris=day_ephemeris
        )
        result = space.evaluate(n_requests=30, n_time_steps=50, seed=2)
        assert result.served_percentage == pytest.approx(
            result.coverage_percentage, abs=15.0
        )


class TestObjectLevelAgainstVectorized:
    def test_full_request_agreement_on_subsample(self, day_ephemeris):
        """NetworkSimulator (objects + Bellman-Ford) and the array engine
        must produce identical served/eta decisions."""
        space = SpaceGroundArchitecture(
            12,
            duration_s=86400.0,
            step_s=300.0,
            ephemeris=day_ephemeris.subset(range(12)),
        )
        analysis = space.analysis()
        simulator = space.build_simulator()
        pairs = [("ttu-0", "epb-5"), ("ornl-2", "epb-11"), ("ttu-4", "ornl-8")]
        for t_idx in np.linspace(0, analysis.n_times - 1, 12).astype(int):
            t_s = float(analysis.times_s[t_idx])
            fast = analysis.serve(pairs, int(t_idx))
            for (src, dst), eta in zip(pairs, fast):
                outcome = simulator.serve_request(src, dst, t_s)
                assert outcome.served == (eta is not None)
                if eta is not None:
                    assert outcome.path_eta == pytest.approx(eta, rel=1e-9)


class TestMovementSheetWorkflow:
    def test_csv_export_import_drives_same_results(self, tmp_path):
        """The paper's STK-sheet workflow: export, re-import, same network."""
        from repro.orbits.ephemeris import Ephemeris, generate_movement_sheet
        from repro.orbits.walker import qntn_constellation

        original = generate_movement_sheet(
            qntn_constellation(6), duration_s=3600.0, step_s=300.0
        )
        path = tmp_path / "sheets.csv"
        original.to_csv(path)
        imported = Ephemeris.from_csv(path)

        a = SpaceGroundArchitecture(
            6, duration_s=3600.0, step_s=300.0, ephemeris=original
        ).evaluate(n_requests=5, n_time_steps=5, seed=3)
        b = SpaceGroundArchitecture(
            6, duration_s=3600.0, step_s=300.0, ephemeris=imported
        ).evaluate(n_requests=5, n_time_steps=5, seed=3)
        assert a.coverage_percentage == b.coverage_percentage
        assert a.service.fidelities == b.service.fidelities
