"""Tests for the ablation experiment drivers."""

import pytest

from repro.experiments import (
    run_geometry_ablation,
    run_guard_ablation,
    run_nbits_ablation,
    run_sensitivity,
)
from repro.retention import VRTParameters
from repro.technology import BankGeometry


class TestNbitsAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_nbits_ablation(geometry=BankGeometry(1024, 8), widths=(1, 2, 3))

    def test_rows_per_width(self, result):
        assert result.column("nbits") == [1, 2, 3]
        assert result.column("MPRSF cap") == [1, 3, 7]

    def test_overhead_monotone_improving(self, result):
        overheads = [float(v) for v in result.column("VRL/RAIDR")]
        assert overheads == sorted(overheads, reverse=True)

    def test_area_monotone_growing(self, result):
        areas = [float(v) for v in result.column("logic um2")]
        assert areas == sorted(areas)


class TestGuardAblation:
    @pytest.fixture(scope="class")
    def result(self):
        # An aggressive VRT population (every row affected, up to 30%
        # degradation) so the small test bank reliably produces
        # unguarded violations.
        return run_guard_ablation(
            geometry=BankGeometry(1024, 8),
            guards=(1.0, 0.75),
            vrt=VRTParameters(affected_fraction=1.0, min_degradation=0.7),
        )

    def test_guard_eliminates_partial_induced_violations(self, result):
        by_guard = {row[0]: row for row in result.rows}
        assert by_guard["0.75"][3] == 0  # partial-induced at default guard
        assert by_guard["1.00"][3] > 0  # without the guard

    def test_raidr_baseline_guard_independent(self, result):
        baselines = {row[4] for row in result.rows}
        assert len(baselines) == 1  # binning exposure does not depend on guard

    def test_guard_costs_overhead(self, result):
        by_guard = {row[0]: float(row[1]) for row in result.rows}
        assert by_guard["0.75"] >= by_guard["1.00"]


class TestGuardAblationPins:
    """The default 8192x32 guard ablation's violation columns, pinned."""

    @pytest.mark.parametrize(
        "seed, partial_induced, raidr_inherited",
        [(2018, [7, 3, 0, 0, 0, 0], 6), (7, [5, 2, 0, 0, 0, 0], 10)],
    )
    def test_violation_columns(self, seed, partial_induced, raidr_inherited):
        result = run_guard_ablation(seed=seed)
        assert result.column("guard") == ["1.00", "0.90", "0.80", "0.75", "0.60", "0.50"]
        assert result.column("partial-induced violations") == partial_induced
        assert result.column("RAIDR-inherited violations") == [raidr_inherited] * 6


class TestGeometryAblation:
    def test_covers_table1_geometries(self):
        result = run_geometry_ablation()
        assert len(result.rows) == 6
        assert result.rows[2][0] == "8192x32"

    def test_saving_grows_with_bank_size(self):
        result = run_geometry_ablation()
        ratios = [float(row[3]) for row in result.rows if row[0].endswith("x32")]
        assert ratios == sorted(ratios, reverse=True)  # partial/full shrinks

    def test_paper_bank_values(self):
        result = run_geometry_ablation()
        row = next(r for r in result.rows if r[0] == "8192x32")
        assert row[1] == 11 and row[2] == 19


class TestSensitivity:
    def test_sorted_and_labeled(self):
        result = run_sensitivity()
        assert result.headers[0] == "parameter"
        assert result.rows[0][4] == "dominant"

    def test_bitline_capacitance_on_top(self):
        result = run_sensitivity()
        top_parameters = [row[0] for row in result.rows[:3]]
        assert "cbl_fixed" in top_parameters


class TestCliIntegration:
    @pytest.mark.parametrize("name", ["ablation-geometry", "sensitivity"])
    def test_cli_runs(self, name, capsys):
        from repro.experiments.cli import main

        assert main([name]) == 0
        assert "ABL-" in capsys.readouterr().out
