"""Unit tests for retention profiling and RAIDR binning."""

import numpy as np
import pytest

from repro.retention import (
    DEFAULT_PERIODS,
    RefreshBinning,
    RetentionProfile,
    RetentionProfiler,
)
from repro.technology import BankGeometry
from repro.units import MS

SMALL = BankGeometry(64, 8)


class TestProfiler:
    def test_shapes(self):
        profile = RetentionProfiler(seed=1).profile(SMALL, keep_cells=True)
        assert profile.row_retention.shape == (64,)
        assert profile.cell_retention.shape == (64, 8)

    def test_row_is_min_of_cells(self):
        profile = RetentionProfiler(seed=1).profile(SMALL, keep_cells=True)
        assert np.array_equal(profile.row_retention, profile.cell_retention.min(axis=1))

    def test_cells_dropped_by_default(self):
        profile = RetentionProfiler(seed=1).profile(SMALL)
        assert profile.cell_retention is None

    def test_deterministic(self):
        a = RetentionProfiler(seed=7).profile(SMALL)
        b = RetentionProfiler(seed=7).profile(SMALL)
        assert np.array_equal(a.row_retention, b.row_retention)

    def test_seed_changes_profile(self):
        a = RetentionProfiler(seed=7).profile(SMALL)
        b = RetentionProfiler(seed=8).profile(SMALL)
        assert not np.array_equal(a.row_retention, b.row_retention)

    def test_weakest_retention(self):
        profile = RetentionProfiler(seed=1).profile(SMALL)
        assert profile.weakest_retention == profile.row_retention.min()


class TestProfileValidation:
    def test_row_shape_mismatch(self):
        with pytest.raises(ValueError, match="row_retention"):
            RetentionProfile(SMALL, np.ones(5))

    def test_cell_shape_mismatch(self):
        with pytest.raises(ValueError, match="cell_retention"):
            RetentionProfile(SMALL, np.ones(64), np.ones((5, 5)))


class TestBinning:
    def _profile(self, retentions):
        geometry = BankGeometry(len(retentions), 1)
        return RetentionProfile(geometry, np.asarray(retentions, dtype=float))

    def test_largest_period_not_exceeding_retention(self):
        profile = self._profile([70 * MS, 130 * MS, 200 * MS, 300 * MS, 5.0])
        result = RefreshBinning().assign(profile)
        assert list(result.row_period) == [64 * MS, 128 * MS, 192 * MS, 256 * MS, 256 * MS]

    def test_exact_boundary_belongs_to_that_bin(self):
        profile = self._profile([128 * MS])
        result = RefreshBinning().assign(profile)
        assert result.row_period[0] == 128 * MS

    def test_weak_rows_clamped_to_shortest(self):
        profile = self._profile([10 * MS])
        result = RefreshBinning().assign(profile)
        assert result.row_period[0] == 64 * MS

    def test_counts_sum_to_rows(self):
        profile = RetentionProfiler(seed=3).profile(BankGeometry(256, 8))
        result = RefreshBinning().assign(profile)
        assert sum(result.counts().values()) == 256

    def test_custom_periods_sorted(self):
        binning = RefreshBinning(periods=(0.256, 0.064))
        assert binning.periods == (0.064, 0.256)

    def test_rejects_empty_periods(self):
        with pytest.raises(ValueError, match="at least one"):
            RefreshBinning(periods=())

    def test_rejects_non_positive_periods(self):
        with pytest.raises(ValueError, match="positive"):
            RefreshBinning(periods=(0.064, -0.1))

    def test_refreshes_per_second(self):
        profile = self._profile([70 * MS, 300 * MS])
        result = RefreshBinning().assign(profile)
        expected = 1 / (64 * MS) + 1 / (256 * MS)
        assert np.sum(1.0 / result.row_period) == pytest.approx(expected)

    def test_binning_reduces_refresh_rate_vs_conventional(self):
        """RAIDR's whole point: fewer refreshes than all-64ms."""
        profile = RetentionProfiler(seed=2).profile(BankGeometry(512, 8))
        result = RefreshBinning().assign(profile)
        conventional = 512 / (64 * MS)
        assert np.sum(1.0 / result.row_period) < conventional

    def test_default_periods_match_fig3b(self):
        assert DEFAULT_PERIODS == (64 * MS, 128 * MS, 192 * MS, 256 * MS)

    def test_row_bin_indexes_periods(self):
        profile = self._profile([70 * MS, 300 * MS])
        result = RefreshBinning().assign(profile)
        assert result.periods[result.row_bin[0]] == result.row_period[0]
        assert result.periods[result.row_bin[1]] == result.row_period[1]
