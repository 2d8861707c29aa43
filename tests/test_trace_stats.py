"""Tests for trace analysis and the VRL-Access Markov predictor."""

import numpy as np
import pytest

from repro.controller import build_policy
from repro.retention import RefreshBinning, RetentionProfiler
from repro.sim import (
    DRAMTiming,
    MemoryTrace,
    RefreshOverheadEvaluator,
    predict_vrl_access_cycles,
    predicted_full_fraction,
    window_coverage,
)
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.units import MS

TECH = DEFAULT_TECH
TIMING = DRAMTiming.from_technology(TECH)
GEO = BankGeometry(128, 8)


def _trace(cycles, rows, writes=None, name="t"):
    cycles = np.asarray(cycles, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    if writes is None:
        writes = np.zeros(len(cycles), dtype=bool)
    return MemoryTrace(cycles, rows, np.asarray(writes, dtype=bool), name=name)


class TestWindowCoverage:
    @pytest.fixture(scope="class")
    def policy(self):
        profile = RetentionProfiler(seed=21).profile(GEO)
        binning = RefreshBinning().assign(profile)
        return build_policy("vrl-access", TECH, profile, binning)

    def test_unaccessed_rows_zero(self, policy):
        duration = TIMING.cycles(512 * MS)
        trace = _trace([10], [0])
        coverage = window_coverage(trace, policy, TIMING, duration)
        assert coverage[1:].max() == 0.0

    def test_dense_access_full_coverage(self, policy):
        duration = TIMING.cycles(512 * MS)
        period = TIMING.cycles(policy.row_period(5))
        cycles = np.arange(0, duration, max(1, period // 4))
        trace = _trace(cycles, np.full(len(cycles), 5))
        coverage = window_coverage(trace, policy, TIMING, duration)
        assert coverage[5] == pytest.approx(1.0)

    def test_half_coverage(self, policy):
        """Accesses in every other interval give coverage ~0.5."""
        duration = TIMING.cycles(2048 * MS)
        row = 7
        period = TIMING.cycles(policy.row_period(row))
        first = (row * period) // policy.n_rows
        dues = np.arange(first, duration, period)
        # One access just before every second deadline.
        cycles = np.sort(dues[::2] - 1)
        cycles = cycles[cycles >= 0]
        trace = _trace(cycles, np.full(len(cycles), row))
        coverage = window_coverage(trace, policy, TIMING, duration)
        assert coverage[row] == pytest.approx(0.5, abs=0.1)

    def test_rows_outside_policy_ignored(self, policy):
        duration = TIMING.cycles(64 * MS)
        trace = _trace([5], [GEO.rows + 50])
        coverage = window_coverage(trace, policy, TIMING, duration)
        assert coverage.sum() == 0.0

    def test_empty_trace_covers_nothing(self, policy):
        empty = _trace([], [])
        coverage = window_coverage(empty, policy, TIMING, TIMING.cycles(64 * MS))
        assert coverage.shape == (policy.n_rows,) and not coverage.any()

    def test_row_with_no_deadline_before_the_horizon_is_zero(self, policy):
        """A horizon that closes before a row's staggered first deadline
        leaves that row no interval to cover, however often it is read."""
        row = policy.n_rows - 1
        period = TIMING.cycles(policy.row_period(row))
        horizon = (row * period) // policy.n_rows  # the row's first deadline
        cycles = np.linspace(0, horizon - 1, 50).astype(np.int64)
        trace = _trace(cycles, np.full(len(cycles), row))
        coverage = window_coverage(trace, policy, TIMING, horizon)
        assert coverage[row] == 0.0

    def test_rejects_bad_duration(self, policy):
        with pytest.raises(ValueError, match="duration"):
            window_coverage(_trace([], []), policy, TIMING, 0)


class TestPredictedFullFraction:
    def test_zero_mprsf_always_full(self):
        assert predicted_full_fraction(0, 0.0) == 1.0
        assert predicted_full_fraction(0, 1.0) == 1.0

    def test_no_coverage_reduces_to_plain_vrl(self):
        for m in (1, 2, 3):
            assert predicted_full_fraction(m, 0.0) == pytest.approx(1 / (m + 1))

    def test_full_coverage_never_full(self):
        assert predicted_full_fraction(3, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_coverage(self):
        values = [predicted_full_fraction(3, c) for c in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert values == sorted(values, reverse=True)

    def test_monotone_in_mprsf(self):
        values = [predicted_full_fraction(m, 0.3) for m in (1, 2, 3, 5)]
        assert values == sorted(values, reverse=True)

    def test_closed_form_geometric(self):
        """Full refresh requires m consecutive no-access intervals; for
        the m=1 chain the stationary full fraction is (1-c)/(2-c)...
        verified against direct enumeration."""
        c = 0.4
        m = 1
        # States {0}; every interval: effective = 0 w.p. c -> partial,
        # else state... enumerate numerically with a long simulation.
        rng = np.random.default_rng(0)
        rcount, fulls, total = 0, 0, 200_000
        for _ in range(total):
            if rng.random() < c:
                rcount = 0
            if rcount == m:
                fulls += 1
                rcount = 0
            else:
                rcount += 1
        assert predicted_full_fraction(m, c) == pytest.approx(fulls / total, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError, match="mprsf"):
            predicted_full_fraction(-1, 0.5)
        with pytest.raises(ValueError, match="coverage"):
            predicted_full_fraction(2, 1.5)


class TestPredictVsSimulation:
    def test_matches_simulator_within_three_percent(self):
        profile = RetentionProfiler(seed=21).profile(GEO)
        binning = RefreshBinning().assign(profile)
        policy = build_policy("vrl-access", TECH, profile, binning)
        duration = TIMING.cycles(2048 * MS)
        rng = np.random.default_rng(5)
        n = 4000
        trace = _trace(
            np.sort(rng.integers(0, duration, n)),
            rng.integers(0, GEO.rows, n),
        )
        simulated = RefreshOverheadEvaluator(policy, TIMING).evaluate(duration, trace)
        policy.reset()
        coverage = window_coverage(trace, policy, TIMING, duration)
        predicted = predict_vrl_access_cycles(
            policy.mprsf.values, coverage, binning.row_period,
            policy.tau_partial, policy.tau_full,
        )
        simulated_rate = simulated.refresh_cycles / (duration * TECH.tck_ctrl)
        assert predicted == pytest.approx(simulated_rate, rel=0.03)

    def test_length_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            predict_vrl_access_cycles(
                np.zeros(3), np.zeros(2), np.ones(3), 11, 19
            )


class TestPredictorPinsFusedTimeline:
    """The closed-form chain ≡ the fused VRL-Access pricing on synthetic
    traces whose coverage is known: each refresh interval of each row
    holds one access with probability ``coverage``, independently."""

    ROWS = 64
    INTERVALS = 400

    def _policy(self, mprsf):
        from repro.controller import VRLAccessPolicy
        from repro.retention import BinningResult

        binning = BinningResult(
            periods=(64 * MS,),
            row_period=np.full(self.ROWS, 64 * MS),
            row_bin=np.zeros(self.ROWS, dtype=np.int64),
        )
        return VRLAccessPolicy(
            binning, np.full(self.ROWS, mprsf), tau_full=19, tau_partial=11, nbits=2
        )

    def _bernoulli_trace(self, policy, coverage, seed):
        period = TIMING.cycles(policy.row_period(0))
        rng = np.random.default_rng(seed)
        cycles, rows = [], []
        for row in range(self.ROWS):
            dues = (row * period) // self.ROWS + period * np.arange(1, self.INTERVALS)
            hit = rng.random(len(dues)) < coverage
            cycles.append(dues[hit] - period // 2)  # inside the interval due closes
            rows.append(np.full(int(hit.sum()), row))
        cycles, rows = np.concatenate(cycles), np.concatenate(rows)
        order = np.argsort(cycles, kind="stable")
        return _trace(cycles[order], rows[order]), self.INTERVALS * period

    @pytest.mark.parametrize("coverage", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("mprsf", [1, 2, 3])
    def test_full_fraction_matches_the_chain(self, mprsf, coverage):
        policy = self._policy(mprsf)
        trace, duration = self._bernoulli_trace(policy, coverage, seed=17 * mprsf)
        measured = window_coverage(trace, policy, TIMING, duration).mean()
        stats = RefreshOverheadEvaluator(policy, TIMING).evaluate(duration, trace)
        full = stats.full_refreshes / (stats.full_refreshes + stats.partial_refreshes)
        assert full == pytest.approx(predicted_full_fraction(mprsf, measured), abs=0.01)
