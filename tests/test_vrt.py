"""Tests for the variable-retention-time model and guard-band story."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.leakage import LeakageModel
from repro.model.trfc import RefreshLatencyModel
from repro.mprsf import MPRSFCalculator
from repro.retention import (
    RefreshBinning,
    RetentionProfiler,
    VRTModel,
    VRTParameters,
    VRTReport,
    group_rows,
)
from repro.technology import BankGeometry, DEFAULT_TECH

TECH = DEFAULT_TECH


def _row_fails(leakage, model, partial, full, retention, period, mprsf, n_generations):
    """Scalar oracle: replay one row's schedule a refresh at a time."""
    fraction = 1.0
    fail = leakage.tech.fail_fraction
    for _ in range(n_generations):
        for refresh_index in range(mprsf + 1):
            fraction = leakage.fraction_after(fraction, period, retention)
            if fraction < fail:
                return True
            timing = full if refresh_index == mprsf else partial
            fraction = model.restored_fraction(fraction, timing)
    return False


def _oracle_mask(model, retention, row_period, mprsf, n_generations):
    """Per-row verdicts of the scalar oracle, memoized on the replay key.

    A key's verdict is computed at the exact retention of the first row
    that carries it and shared by every later row with the same key.
    """
    leakage = LeakageModel(model.tech)
    partial, full = model.partial_refresh(), model.full_refresh()
    cache: dict[tuple[int, float, int], bool] = {}
    mask = []
    for r, period, m in zip(retention, row_period, mprsf):
        key = (int(r * 1e4), float(period), int(m))
        if key not in cache:
            cache[key] = _row_fails(
                leakage, model, partial, full, r, period, int(m), n_generations
            )
        mask.append(cache[key])
    return np.array(mask, dtype=bool)


@pytest.fixture(scope="module")
def small_stack():
    geometry = BankGeometry(1024, 8)
    profile = RetentionProfiler(seed=42).profile(geometry)
    binning = RefreshBinning().assign(profile)
    return profile, binning


class TestParameters:
    def test_defaults_valid(self):
        VRTParameters()

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="affected_fraction"):
            VRTParameters(affected_fraction=-0.1)

    def test_rejects_bad_degradation(self):
        with pytest.raises(ValueError, match="min_degradation"):
            VRTParameters(min_degradation=0.0)
        with pytest.raises(ValueError, match="min_degradation"):
            VRTParameters(min_degradation=1.5)


class TestDegradedRetention:
    def test_deterministic(self, small_stack):
        profile, _ = small_stack
        a = VRTModel(seed=3).degraded_retention(profile)
        b = VRTModel(seed=3).degraded_retention(profile)
        assert np.array_equal(a, b)

    def test_never_increases_retention(self, small_stack):
        profile, _ = small_stack
        degraded = VRTModel().degraded_retention(profile)
        assert (degraded <= profile.row_retention + 1e-15).all()

    def test_bounded_by_min_degradation(self, small_stack):
        profile, _ = small_stack
        params = VRTParameters(affected_fraction=1.0, min_degradation=0.7)
        degraded = VRTModel(params).degraded_retention(profile)
        assert (degraded >= 0.7 * profile.row_retention - 1e-15).all()

    def test_affected_fraction_zero_is_identity(self, small_stack):
        profile, _ = small_stack
        params = VRTParameters(affected_fraction=0.0)
        degraded = VRTModel(params).degraded_retention(profile)
        assert np.array_equal(degraded, profile.row_retention)

    def test_original_profile_untouched(self, small_stack):
        profile, _ = small_stack
        before = profile.row_retention.copy()
        VRTModel(VRTParameters(affected_fraction=1.0)).degraded_retention(profile)
        assert np.array_equal(profile.row_retention, before)


class TestIntegrity:
    def _mprsf(self, tech, profile, binning):
        calc = MPRSFCalculator(tech, profile.geometry)
        return calc.mprsf_for_rows(
            profile.row_retention, binning.row_period, max_count=3
        )

    def test_guard_band_covers_vrt_for_partial_rows(self, small_stack):
        """The headline: with the calibrated guard, partial refreshes
        add zero violations beyond RAIDR's own VRT exposure."""
        profile, binning = small_stack
        vrt = VRTModel(VRTParameters(affected_fraction=0.1, min_degradation=0.75))
        mprsf = self._mprsf(TECH, profile, binning)
        report = vrt.integrity_report(TECH, profile, binning.row_period, mprsf)
        assert report.partial_induced == 0

    def test_no_guard_induces_violations(self, small_stack):
        profile, binning = small_stack
        unguarded = TECH.scaled(retention_guard=1.0)
        vrt = VRTModel(VRTParameters(affected_fraction=0.3, min_degradation=0.75))
        mprsf = self._mprsf(unguarded, profile, binning)
        report = vrt.integrity_report(unguarded, profile, binning.row_period, mprsf)
        assert report.partial_induced > 0

    def test_no_vrt_no_violations(self, small_stack):
        profile, binning = small_stack
        vrt = VRTModel(VRTParameters(affected_fraction=0.0))
        mprsf = self._mprsf(TECH, profile, binning)
        report = vrt.integrity_report(TECH, profile, binning.row_period, mprsf)
        assert report.total_violations == 0
        assert report.raidr_baseline == 0

    def test_report_arithmetic(self):
        report = VRTReport(total_violations=9, raidr_baseline=6)
        assert report.partial_induced == 3

    def test_shape_validation(self, small_stack):
        profile, binning = small_stack
        vrt = VRTModel()
        with pytest.raises(ValueError, match="row count"):
            vrt.integrity_violations(
                TECH, profile, binning.row_period[:10], np.zeros(10, dtype=int)
            )

    @pytest.mark.parametrize(
        "period, mprsf, n_generations, match",
        [
            (0.0, 1, 8, "refresh periods must be positive"),
            (-0.064, 1, 8, "refresh periods must be positive"),
            (0.064, -1, 8, "mprsf must be non-negative"),
            (0.064, 1, 0, "n_generations must be >= 1"),
        ],
        ids=["zero-period", "negative-period", "negative-mprsf", "no-generations"],
    )
    def test_malformed_inputs_rejected(self, small_stack, period, mprsf, n_generations, match):
        profile, binning = small_stack
        row_period = binning.row_period.copy()
        row_period[3] = period
        counts = np.zeros(len(row_period), dtype=int)
        counts[5] = mprsf
        with pytest.raises(ValueError, match=f"VRTModel.integrity_violations: {match}"):
            VRTModel().integrity_violations(TECH, profile, row_period, counts, n_generations)


class TestVectorizedReplay:
    """The array replay equals the scalar oracle row for row (invariant 14)."""

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.sampled_from([64, 128, 256]),
        cols=st.sampled_from([4, 8]),
        profile_seed=st.integers(0, 2**16),
        vrt_seed=st.integers(0, 2**16),
        affected=st.floats(0.0, 1.0),
        min_degradation=st.floats(0.4, 1.0),
        period_scale=st.floats(0.5, 4.0),
        max_mprsf=st.integers(0, 3),
        n_generations=st.integers(1, 8),
        twins=st.integers(0, 16),
    )
    def test_mask_equals_scalar_oracle(
        self,
        rows,
        cols,
        profile_seed,
        vrt_seed,
        affected,
        min_degradation,
        period_scale,
        max_mprsf,
        n_generations,
        twins,
    ):
        geometry = BankGeometry(rows, cols)
        profile = RetentionProfiler(seed=profile_seed).profile(geometry)
        binning = RefreshBinning().assign(profile)
        vrt = VRTModel(VRTParameters(affected, min_degradation), seed=vrt_seed)
        retention = vrt.degraded_retention(profile)
        row_period = binning.row_period * period_scale
        rng = np.random.default_rng(vrt_seed)
        mprsf = rng.integers(0, max_mprsf + 1, size=rows)
        # Twins: later rows that share an earlier row's dedup key (same
        # 0.1 ms retention bucket, period and mprsf) at a different exact
        # retention, so the first-occurrence rule is exercised.
        src = rng.integers(0, rows // 2, size=twins)
        dst = rng.integers(rows // 2, rows, size=twins)
        bucket = np.trunc(retention[src] * 1e4)
        retention[dst] = (bucket + rng.uniform(0.05, 0.95, size=twins)) / 1e4
        row_period[dst] = row_period[src]
        mprsf[dst] = mprsf[src]

        model = RefreshLatencyModel(TECH, geometry)
        got = VRTModel._failing_rows(model, retention, row_period, mprsf, n_generations)
        want = _oracle_mask(model, retention, row_period, mprsf, n_generations)
        assert got.dtype == bool
        assert np.array_equal(got, want)

    def test_key_takes_first_rows_verdict(self):
        """Rows in one dedup key inherit the first row's exact verdict."""
        model = RefreshLatencyModel(TECH, BankGeometry(64, 8))
        leakage = LeakageModel(TECH)
        partial, full = model.partial_refresh(), model.full_refresh()
        period = 0.09995

        def fails(r):
            return _row_fails(leakage, model, partial, full, r, period, 0, 8)

        lo, hi = 0.5 * period, 2 * period  # fails at lo, survives at hi
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if fails(mid) else (lo, mid)
        weak, strong = lo, hi
        assert int(weak * 1e4) == int(strong * 1e4)
        assert fails(weak) and not fails(strong)

        periods = np.full(2, period)
        counts = np.zeros(2, dtype=int)
        for pair, verdict in (([weak, strong], True), ([strong, weak], False)):
            got = VRTModel._failing_rows(model, np.array(pair), periods, counts, 8)
            assert got.tolist() == [verdict, verdict]

    def test_empty_profile(self):
        model = RefreshLatencyModel(TECH, BankGeometry(64, 8))
        empty = np.zeros(0)
        got = VRTModel._failing_rows(model, empty, empty, empty.astype(int), 8)
        assert got.shape == (0,) and got.dtype == bool


class TestGroupRows:
    """The lexsort grouping equals ``np.unique(axis=0)``'s partition."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(0, 400),
        pools=st.lists(
            st.lists(
                st.floats(0.0, 1e9, allow_nan=False, allow_subnormal=False),
                min_size=1,
                max_size=5,
            ),
            min_size=3,
            max_size=3,
        ),
    )
    def test_matches_unique_axis0(self, seed, n_rows, pools):
        # Few distinct values per column, so most keys repeat many times.
        rng = np.random.default_rng(seed)
        keys = np.stack(
            [np.asarray(pool, dtype=float)[rng.integers(0, len(pool), n_rows)] for pool in pools],
            axis=1,
        )
        first, inverse = group_rows(keys)
        _, want_first, want_inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
        assert np.array_equal(first, want_first)
        assert np.array_equal(inverse, want_inverse.reshape(-1))
        assert np.array_equal(keys[first][inverse], keys)

    def test_first_occurrence_and_key_order(self):
        keys = np.array([[2.0, 1.0, 0.0], [1.0, 5.0, 1.0], [2.0, 1.0, 0.0], [1.0, 5.0, 0.0]])
        first, inverse = group_rows(keys)
        assert first.tolist() == [3, 1, 0]
        assert inverse.tolist() == [2, 1, 2, 0]
