"""Tests for the temperature model and the temperature/bins studies."""

import numpy as np
import pytest

from repro.experiments import run_bins_ablation, run_temperature_study
from repro.retention import RetentionProfiler, TemperatureModel
from repro.technology import BankGeometry


class TestTemperatureModel:
    def test_reference_is_identity(self):
        model = TemperatureModel()
        assert model.retention_factor(model.reference) == 1.0

    def test_halving(self):
        model = TemperatureModel(reference=45.0, halving=10.0)
        assert model.retention_factor(55.0) == pytest.approx(0.5)
        assert model.retention_factor(65.0) == pytest.approx(0.25)

    def test_cooling_helps(self):
        model = TemperatureModel(reference=45.0, halving=10.0)
        assert model.retention_factor(35.0) == pytest.approx(2.0)

    def test_rejects_bad_halving(self):
        with pytest.raises(ValueError, match="halving"):
            TemperatureModel(halving=0.0)

    def test_scale_profile(self):
        profile = RetentionProfiler(seed=1).profile(BankGeometry(32, 4), keep_cells=True)
        model = TemperatureModel(reference=45.0, halving=10.0)
        hot = model.scale_profile(profile, 55.0)
        assert np.allclose(hot.row_retention, profile.row_retention * 0.5)
        assert np.allclose(hot.cell_retention, profile.cell_retention * 0.5)
        # Original untouched.
        assert hot is not profile

    def test_scale_profile_without_cells(self):
        profile = RetentionProfiler(seed=1).profile(BankGeometry(32, 4))
        hot = TemperatureModel().scale_profile(profile, 65.0)
        assert hot.cell_retention is None


class TestTemperatureStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_temperature_study(
            geometry=BankGeometry(1024, 8), temperatures=(45.0, 55.0, 65.0)
        )

    def test_raidr_cost_grows_with_heat(self, result):
        costs = [float(row[3].rstrip("x")) for row in result.rows]
        assert costs == sorted(costs)
        assert costs[0] == pytest.approx(1.0)

    def test_weak_rows_grow_with_heat(self, result):
        weak = [row[2] for row in result.rows]
        assert weak == sorted(weak)

    def test_vrl_headroom_erodes(self, result):
        """The study's finding: MPRSF collapses as retention halves."""
        mprsf = [float(row[5]) for row in result.rows]
        assert mprsf[0] > mprsf[-1]


class TestBinsAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_bins_ablation(geometry=BankGeometry(1024, 8))

    def test_raidr_rate_falls_with_more_bins(self, result):
        rates = [float(row[1]) for row in result.rows]
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))

    def test_paper_set_normalized_to_one(self, result):
        row = next(r for r in result.rows if r[0] == "64/128/192/256 ms")
        assert float(row[4]) == pytest.approx(1.0)

    def test_extended_bins_cut_absolute_cost(self, result):
        """The study's finding: a 512 ms bin lowers total refresh cost
        even though the VRL/RAIDR ratio worsens."""
        paper = next(r for r in result.rows if r[0] == "64/128/192/256 ms")
        extended = next(r for r in result.rows if "512" in r[0])
        assert float(extended[4]) < float(paper[4])
        assert float(extended[2]) > float(paper[2])
