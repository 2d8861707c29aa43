"""Tests for the experiment drivers (cheap configurations)."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentResult,
    run_fig1a,
    run_fig1b,
    run_fig3,
    run_fig4,
    run_fig5,
    run_latency_breakdown,
    run_table1,
    run_table2,
)
from repro.model.presensing import PreSensingModel
from repro.runner import ExperimentRunner, ResultCache


class TestExperimentResult:
    def test_format_contains_headers_and_rows(self):
        result = ExperimentResult("X", "title", ["a", "b"], [(1, 2.5), (3, 4.0)], {"k": "v"})
        text = result.format()
        assert "X: title" in text
        assert "a" in text and "b" in text
        assert "2.5" in text
        assert "k: v" in text

    def test_column_access(self):
        result = ExperimentResult("X", "t", ["a", "b"], [(1, 2), (3, 4)])
        assert result.column("b") == [2, 4]

    def test_column_unknown(self):
        result = ExperimentResult("X", "t", ["a"], [(1,)])
        with pytest.raises(KeyError, match="no column"):
            result.column("zzz")

    def test_empty_rows_format(self):
        result = ExperimentResult("X", "t", ["a"], [])
        assert "X" in result.format()


class TestFig1a:
    def test_headline_note(self):
        result = run_fig1a(with_spice=False)
        assert result.experiment_id == "FIG1A"
        note = result.notes["tRFC fraction to reach 95% charge (model)"]
        assert float(note.rstrip("%")) == pytest.approx(60, abs=5)

    def test_curve_monotone(self):
        result = run_fig1a(with_spice=False, n_points=21)
        charges = result.column("% charge (model)")
        assert charges == sorted(charges)
        assert len(result.rows) == 21


class TestFig1b:
    def test_partial_schedule_fails_full_does_not(self):
        result = run_fig1b()
        assert result.notes["data loss under back-to-back partials"] is True
        full_min = min(result.column("% charge (full refresh)"))
        assert full_min > 100 * 0.625  # full refreshes keep the cell alive

    def test_example_cell_mprsf_one(self):
        result = run_fig1b()
        assert result.notes["MPRSF of the example cell"] == 1

    def test_rejects_retention_below_period(self):
        with pytest.raises(ValueError, match="retention above"):
            run_fig1b(retention_time=0.050, refresh_period=0.064)


class TestFig3:
    def test_bins_reported(self):
        result = run_fig3()
        assert "  64 ms bin" in result.notes
        assert "68 rows" in result.notes["  64 ms bin"]

    def test_histogram_covers_cells(self):
        result = run_fig3()
        total = sum(result.column("cells (Fig. 3a histogram)"))
        assert total > 200_000  # most of the 262144 cells fall in range


class TestSec31:
    def test_breakdowns_in_notes(self):
        result = run_latency_breakdown()
        assert "-> 11 cycles" in result.notes["tau_partial breakdown"]
        assert "-> 19 cycles" in result.notes["tau_full breakdown"]

    def test_best_marked(self):
        result = run_latency_breakdown()
        marks = [row[-1] for row in result.rows]
        assert marks.count("<- best") == 1


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4(duration_seconds=0.6, benchmarks=["swaptions", "bgsave"])

    def test_structure(self, result):
        assert result.headers == ["benchmark", "RAIDR", "VRL", "VRL-Access"]
        names = [row[0] for row in result.rows]
        assert names == ["swaptions", "bgsave", "MEAN"]

    def test_raidr_normalized_to_one(self, result):
        assert all(row[1] == "1.000" for row in result.rows)

    def test_vrl_application_independent(self, result):
        vrl = {row[2] for row in result.rows[:-1]}
        assert len(vrl) == 1  # same value for every benchmark

    def test_ordering_raidr_vrl_access(self, result):
        for row in result.rows:
            raidr, vrl, access = float(row[1]), float(row[2]), float(row[3])
            assert access <= vrl < raidr

    def test_power_note(self, result):
        note = result.notes["VRL refresh-power reduction vs RAIDR"]
        reduction = float(note.split("%")[0])
        assert 8 < reduction < 18  # paper: 12%

    def test_warm_rerun_solves_no_latency_model(self, tmp_path, monkeypatch):
        """A second warm sweep in the process takes the power note's
        refresh timings from the memo: no pre-sensing solve, same notes."""
        def run():
            return run_fig4(
                duration_seconds=0.1, benchmarks=["swaptions"],
                runner=ExperimentRunner(cache=ResultCache(tmp_path)),
            )

        cold, first_warm = run(), run()
        calls = []
        vsense_coupled = PreSensingModel.vsense_coupled

        def counting(model, *args, **kwargs):
            calls.append(args)
            return vsense_coupled(model, *args, **kwargs)

        monkeypatch.setattr(PreSensingModel, "vsense_coupled", counting)
        warm = run()
        assert calls == []
        assert warm.rows == cold.rows
        for notes in (warm.notes, first_warm.notes):
            assert {k: v for k, v in notes.items() if not k.startswith("runner")} == {
                k: v for k, v in cold.notes.items() if not k.startswith("runner")
            }


class TestFig5:
    def test_two_phase_wins(self):
        result = run_fig5()
        assert result.notes["two-phase model closer to SPICE"] is True

    def test_waveform_columns(self):
        result = run_fig5(n_samples=5)
        assert len(result.rows) == 5
        assert len(result.headers) == 6


class TestTable1:
    def test_model_column_matches_paper(self):
        result = run_table1(with_spice=False)
        got = result.column("our model")
        assert got == [7, 8, 9, 10, 12, 14]
        assert result.notes["our-model column exact matches vs paper"] == "6/6"

    def test_spice_skipped_when_disabled(self):
        result = run_table1(with_spice=False)
        assert set(result.column("SPICE-lite")) == {"-"}


class TestTable2:
    def test_three_rows(self):
        result = run_table2()
        assert result.column("nbits") == [2, 3, 4]

    def test_areas_near_paper(self):
        result = run_table2()
        areas = [float(a) for a in result.column("logic area (um2)")]
        for got, paper in zip(areas, (105, 152, 200)):
            assert got == pytest.approx(paper, rel=0.06)
