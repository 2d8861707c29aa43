"""Unit tests for the MPRSF calculator and tau_partial optimizer."""

import numpy as np
import pytest

from repro.mprsf import MPRSFCalculator, TauPartialOptimizer
from repro.retention import DataPattern, RefreshBinning, RetentionProfiler
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.units import MS

TECH = DEFAULT_TECH


@pytest.fixture(scope="module")
def calc():
    return MPRSFCalculator(TECH)


class TestMprsfForCell:
    def test_retention_equal_to_period_gives_zero(self, calc):
        assert calc.mprsf_for_cell(64 * MS, 64 * MS) == 0

    def test_strong_cell_hits_cap(self, calc):
        assert calc.mprsf_for_cell(5.0, 64 * MS, max_count=3) == 3

    def test_monotone_in_retention(self, calc):
        values = [
            calc.mprsf_for_cell(ret * MS, 256 * MS, max_count=16)
            for ret in (256, 300, 400, 500, 800, 2000)
        ]
        assert values == sorted(values)

    def test_monotone_in_period(self, calc):
        """Shorter refresh periods give more partial headroom."""
        m64 = calc.mprsf_for_cell(500 * MS, 64 * MS, max_count=16)
        m256 = calc.mprsf_for_cell(500 * MS, 256 * MS, max_count=16)
        assert m64 >= m256

    def test_guard_band_reduces_mprsf(self, calc):
        ret, period = 400 * MS, 256 * MS
        guarded = calc.mprsf_for_cell(ret, period, apply_guard=True)
        unguarded = calc.mprsf_for_cell(ret, period, apply_guard=False)
        assert guarded <= unguarded

    def test_worst_pattern_reduces_mprsf(self, calc):
        ret, period = 90 * MS, 64 * MS
        worst = calc.mprsf_for_cell(ret, period, pattern=DataPattern.ALTERNATING,
                                    apply_guard=False)
        best = calc.mprsf_for_cell(ret, period, pattern=DataPattern.ALL_ONES,
                                   apply_guard=False)
        assert worst <= best

    def test_fig1b_example(self, calc):
        """A ~70 ms cell at 64 ms: one partial safe, two not (Fig. 1b)."""
        partial = calc.model.partial_refresh()
        m = calc.mprsf_for_cell(
            70 * MS, 64 * MS, partial, DataPattern.ALL_ONES, apply_guard=False
        )
        assert m == 1

    def test_max_count_caps(self, calc):
        assert calc.mprsf_for_cell(10.0, 64 * MS, max_count=2) == 2

    def test_rejects_bad_period(self, calc):
        with pytest.raises(ValueError, match="period"):
            calc.mprsf_for_cell(0.3, 0.0)

    def test_rejects_negative_cap(self, calc):
        with pytest.raises(ValueError, match="max_count"):
            calc.mprsf_for_cell(0.3, 0.064, max_count=-1)


class TestMprsfForRows:
    def test_matches_scalar_calls(self, calc):
        retention = np.array([0.07, 0.2, 1.0, 3.0])
        period = np.array([0.064, 0.128, 0.256, 0.256])
        vector = calc.mprsf_for_rows(retention, period, max_count=8)
        for i in range(len(retention)):
            scalar = calc.mprsf_for_cell(
                round(retention[i] * 1000) / 1000, period[i], max_count=8
            )
            assert vector[i] == scalar

    def test_shape_mismatch_rejected(self, calc):
        with pytest.raises(ValueError, match="shape"):
            calc.mprsf_for_rows(np.ones(3), np.ones(4))

    def test_memoization_consistency(self, calc):
        """Duplicate (retention, period) rows get identical MPRSF."""
        retention = np.array([0.5, 0.5, 0.5])
        period = np.array([0.256, 0.256, 0.256])
        values = calc.mprsf_for_rows(retention, period)
        assert len(set(values.tolist())) == 1


def _circuit_fraction(calc, start, timing):
    """The circuit-restored fraction of one starting charge (a one-lane run)."""
    return float(calc.circuit_restored_fractions(np.array([start]), timing)[0])


class TestCircuitCrossCheck:
    """One-point circuit_restored_fractions vs the Eq. 12 analytical model."""

    def test_agrees_with_model(self, calc):
        """Circuit-level restoration lands near the model's prediction.

        The model truncates restoration at the partial target while the
        circuit keeps charging until the wordline closes, so the circuit
        may overshoot slightly; demand agreement within 5% of V_dd.
        """
        timing = calc.model.partial_refresh()
        start = 0.80
        predicted = calc.model.restored_fraction(start, timing)
        measured = _circuit_fraction(calc, start, timing)
        assert abs(measured - predicted) < 0.05

    def test_monotone_in_start_fraction(self, calc):
        timing = calc.model.partial_refresh()
        fractions = [
            _circuit_fraction(calc, s, timing) for s in (0.75, 0.85, 0.95)
        ]
        assert fractions == sorted(fractions)
        assert all(0.5 < f <= 1.05 for f in fractions)

    def test_session_cached_per_timing(self, calc):
        timing = calc.model.partial_refresh()
        _circuit_fraction(calc, 0.8, timing)
        n_sessions = len(calc._sessions)
        _circuit_fraction(calc, 0.9, timing)
        assert len(calc._sessions) == n_sessions  # same timing -> same session
        _circuit_fraction(calc, 0.9, calc.model.full_refresh())
        assert len(calc._sessions) == n_sessions + 1


class TestChargeTrajectory:
    def test_full_refresh_sawtooth_returns_to_one(self, calc):
        full = calc.model.full_refresh()
        t, q = calc.charge_trajectory(0.2, 64 * MS, full, 3)
        peaks = q[np.isclose(t % (64 * MS), 0.0) & (t > 0)]
        assert (peaks > 0.99).any()

    def test_partial_refresh_peaks_at_target(self, calc):
        partial = calc.model.partial_refresh()
        t, q = calc.charge_trajectory(0.2, 64 * MS, partial, 3)
        assert q.max() == pytest.approx(1.0)  # the initial full charge
        late_peaks = q[(t > 64 * MS) & (q > 0.9)]
        assert late_peaks.max() <= TECH.partial_restore_fraction + 1e-9

    def test_time_axis_covers_periods(self, calc):
        t, _ = calc.charge_trajectory(0.2, 64 * MS, calc.model.full_refresh(), 3)
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(192 * MS)

    def test_rejects_bad_args(self, calc):
        full = calc.model.full_refresh()
        with pytest.raises(ValueError, match="n_periods"):
            calc.charge_trajectory(0.2, 64 * MS, full, 0)
        with pytest.raises(ValueError, match="samples"):
            calc.charge_trajectory(0.2, 64 * MS, full, 2, samples_per_period=1)


@pytest.fixture(scope="module")
def sweep():
    profile = RetentionProfiler(seed=2018).profile()
    binning = RefreshBinning().assign(profile)
    optimizer = TauPartialOptimizer(TECH)
    return optimizer, optimizer.optimize(profile, binning)


class TestOptimizer:
    def test_selects_paper_operating_point(self, sweep):
        _, result = sweep
        assert result.best.restore_fraction == pytest.approx(0.95)
        assert result.best.tau_partial_cycles == 11
        assert result.tau_full_cycles == 19

    def test_vrl_beats_raidr(self, sweep):
        _, result = sweep
        assert result.best.overhead_vs_raidr < 0.85

    def test_all_candidates_evaluated(self, sweep):
        _, result = sweep
        assert len(result.candidates) == 5
        assert result.best in result.candidates

    def test_mprsf_capped_by_nbits(self, sweep):
        optimizer, result = sweep
        assert result.mprsf.max() <= optimizer.mprsf_cap
        assert optimizer.mprsf_cap == 3

    def test_best_minimizes_overhead(self, sweep):
        _, result = sweep
        best = min(e.overhead_cycles_per_second for e in result.candidates)
        assert result.best.overhead_cycles_per_second == best

    def test_binding_pattern_is_worst(self):
        optimizer = TauPartialOptimizer(TECH)
        assert optimizer.binding_pattern() is DataPattern.ALTERNATING

    def test_rejects_bad_nbits(self):
        with pytest.raises(ValueError, match="nbits"):
            TauPartialOptimizer(TECH, nbits=0)

    def test_rejects_empty_candidates(self):
        profile = RetentionProfiler(seed=1).profile(BankGeometry(32, 4))
        binning = RefreshBinning().assign(profile)
        with pytest.raises(ValueError, match="candidates"):
            TauPartialOptimizer(TECH, BankGeometry(32, 4)).optimize(
                profile, binning, candidates=[]
            )


class TestOverheadFormulas:
    def test_vrl_overhead_closed_form(self):
        mprsf = np.array([0, 3])
        period = np.array([0.064, 0.256])
        got = TauPartialOptimizer.vrl_overhead(mprsf, period, tau_partial=11, tau_full=19)
        expected = 19 / 0.064 + ((3 * 11 + 19) / 4) / 0.256
        assert got == pytest.approx(expected)

    def test_raidr_overhead_closed_form(self):
        period = np.array([0.064, 0.256])
        assert TauPartialOptimizer.raidr_overhead(period, 19) == pytest.approx(
            19 / 0.064 + 19 / 0.256
        )

    def test_zero_mprsf_equals_raidr(self):
        period = np.array([0.064, 0.128])
        vrl = TauPartialOptimizer.vrl_overhead(np.zeros(2), period, 11, 19)
        raidr = TauPartialOptimizer.raidr_overhead(period, 19)
        assert vrl == pytest.approx(raidr)
