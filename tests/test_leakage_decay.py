"""The array decay helper and the row grouping equal the paths they replace.

``LeakageModel.decay_factors`` must give, byte for byte, the factor the
scalar chain ``math.exp(-p / LeakageModel.tau(r, f))`` gives, and raise
``tau``'s errors; ``mprsf_for_rows`` must equal its old
``np.unique(axis=0)`` grouping; ``VRTModel.integrity_report`` must equal
its two ``integrity_violations`` replays (architecture invariant 14).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.model.leakage import LeakageModel
from repro.mprsf import MPRSFCalculator
from repro.retention import (
    DEFAULT_PERIODS,
    DataPattern,
    RefreshBinning,
    RetentionProfiler,
    VRTModel,
    VRTParameters,
)
from repro.technology import BankGeometry, DEFAULT_TECH

TECH = DEFAULT_TECH
LEAKAGE = LeakageModel(TECH)

retentions = st.floats(1e-6, 1e3)
periods = st.floats(1e-3, 10.0)
factors = st.one_of(
    st.just(1.0),
    st.floats(0.0, 1.0, exclude_min=True),
    # A data-pattern derating times a retention guard, as MPRSF applies them.
    st.tuples(
        st.sampled_from([p.retention_derating for p in DataPattern]),
        st.floats(0.5, 1.0),
    ).map(lambda pair: pair[0] * pair[1]),
)


def _scalar_chain(retention, elapsed, factor):
    return np.array(
        [math.exp(-p / LeakageModel(TECH).tau(r, f)) for r, p, f in zip(retention, elapsed, factor)],
        dtype=float,
    )


def _assert_same_as_scalar_chain(retention, elapsed, factor):
    """Same bytes as the scalar chain, or the same error where it raises."""
    try:
        want = _scalar_chain(retention, elapsed, np.broadcast_to(factor, np.shape(retention)))
    except ValueError as error:
        with pytest.raises(ValueError) as caught:
            LEAKAGE.decay_factors(retention, elapsed, factor)
        assert str(caught.value) == str(error)
        return
    got = LEAKAGE.decay_factors(retention, elapsed, factor)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _tau_error(retention, factor):
    with pytest.raises(ValueError) as caught:
        LEAKAGE.tau(retention, factor)
    return str(caught.value)


class TestDecayFactorsMatchScalarChain:
    @settings(max_examples=200, deadline=None)
    @given(points=st.lists(st.tuples(retentions, periods, factors), max_size=64))
    @example(points=[(0.3, 0.064, 1.0), (1e-6, 10.0, 0.75 * 0.85), (1e3, 1e-3, 0.92 * 0.75)])
    def test_byte_identical(self, points):
        # A tiny factor can underflow r * f to 0.0; then both must raise.
        retention, elapsed, factor = np.array(points, dtype=float).reshape(-1, 3).T
        _assert_same_as_scalar_chain(retention, elapsed, factor)

    @settings(max_examples=50, deadline=None)
    @given(
        points=st.lists(st.tuples(retentions, periods), min_size=1, max_size=32),
        factor=factors,
    )
    def test_scalar_factor_broadcasts(self, points, factor):
        retention, elapsed = np.array(points, dtype=float).T
        _assert_same_as_scalar_chain(retention, elapsed, factor)

    def test_shape_kept(self):
        retention = np.array([[0.1, 0.2], [0.3, 0.4]])
        got = LEAKAGE.decay_factors(retention, 0.064)
        assert got.shape == (2, 2)
        want = _scalar_chain(retention.ravel(), [0.064] * 4, [1.0] * 4)
        assert np.array_equal(got.ravel().view(np.int64), want.view(np.int64))

    def test_empty(self):
        got = LEAKAGE.decay_factors(np.zeros(0), np.zeros(0), 0.5)
        assert got.shape == (0,) and got.dtype == float


class TestDecayFactorsErrors:
    @pytest.mark.parametrize("bad", [0.0, -0.0, -1e-3])
    def test_non_positive_retention(self, bad):
        retention = np.array([0.3, bad, 0.2])
        with pytest.raises(ValueError) as caught:
            LEAKAGE.decay_factors(retention, np.full(3, 0.064), 0.9)
        assert str(caught.value) == _tau_error(bad, 0.9)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, float("nan"), float("inf")])
    def test_factor_outside_unit_interval(self, bad):
        factor = np.array([1.0, bad, 0.5])
        with pytest.raises(ValueError) as caught:
            LEAKAGE.decay_factors(np.full(3, 0.3), np.full(3, 0.064), factor)
        assert str(caught.value) == _tau_error(0.3, bad)

    def test_scalar_bad_factor(self):
        with pytest.raises(ValueError) as caught:
            LEAKAGE.decay_factors(np.full(3, 0.3), np.full(3, 0.064), 2.0)
        assert str(caught.value) == _tau_error(0.3, 2.0)

    def test_first_offending_element_named(self):
        # Element 1 has a bad retention, element 2 a bad factor: the
        # scalar loop stops at element 1, and so does the array form.
        retention = np.array([0.3, -2.0, 0.3])
        factor = np.array([1.0, 0.5, 3.0])
        with pytest.raises(ValueError) as caught:
            LEAKAGE.decay_factors(retention, np.full(3, 0.064), factor)
        assert str(caught.value) == _tau_error(-2.0, 0.5)
        # The factor check comes first within one element, as in tau.
        with pytest.raises(ValueError) as caught:
            LEAKAGE.decay_factors(np.array([-1.0]), np.array([0.064]), np.array([0.0]))
        assert str(caught.value) == _tau_error(-1.0, 0.0)

    def test_nan_retention_passes_through(self):
        retention = np.array([0.3, float("nan"), 0.2])
        got = LEAKAGE.decay_factors(retention, np.full(3, 0.064), 0.9)
        want = _scalar_chain(retention, [0.064] * 3, [0.9] * 3)
        assert math.isnan(got[1]) and math.isnan(want[1])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _rows_by_unique(calc, row_retention, row_period, max_count):
    """The ``np.unique(axis=0)`` grouping ``mprsf_for_rows`` used before."""
    quantized = np.rint(np.asarray(row_retention, dtype=float) * 1000.0)
    keys = np.stack([quantized, np.asarray(row_period, dtype=float)], axis=1)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    values = calc.mprsf_for_points(uniq[:, 0] / 1000.0, uniq[:, 1], max_count=max_count)
    return values[inverse.reshape(-1)]


class TestRowsMatchUniqueGrouping:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n_rows=st.integers(0, 300),
        half_ms=st.lists(st.integers(2, 4000), min_size=1, max_size=12),
        guard=st.sampled_from([1.0, 0.9, 0.75]),
        max_count=st.integers(0, 16),
    )
    def test_equals_unique_path(self, data, n_rows, half_ms, guard, max_count):
        # Retention on a half-millisecond grid from 1 ms: every odd entry
        # is a np.rint tie, and a small pool makes keys repeat.
        pool = np.array(half_ms, dtype=float) / 2000.0
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_rows, max_size=n_rows))
        period_picks = data.draw(
            st.lists(st.integers(0, len(DEFAULT_PERIODS) - 1), min_size=n_rows, max_size=n_rows)
        )
        row_retention = pool[np.asarray(picks, dtype=int)]
        row_period = np.asarray(DEFAULT_PERIODS, dtype=float)[np.asarray(period_picks, dtype=int)]
        calc = MPRSFCalculator(TECH.scaled(retention_guard=guard), BankGeometry(256, 8))
        got = calc.mprsf_for_rows(row_retention, row_period, max_count=max_count)
        want = _rows_by_unique(calc, row_retention, row_period, max_count)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [2018, 7])
    def test_profiled_bank(self, seed):
        profile = RetentionProfiler(seed=seed).profile(BankGeometry(2048, 32))
        binning = RefreshBinning().assign(profile)
        calc = MPRSFCalculator(TECH, profile.geometry)
        got = calc.mprsf_for_rows(profile.row_retention, binning.row_period, max_count=3)
        want = _rows_by_unique(calc, profile.row_retention, binning.row_period, 3)
        assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def stack():
    profile = RetentionProfiler(seed=11).profile(BankGeometry(1024, 8))
    return profile, RefreshBinning().assign(profile)


class TestIntegrityReportSharesOneReplaySetup:
    @pytest.mark.parametrize("guard", [1.0, 0.9, 0.75, 0.5])
    @pytest.mark.parametrize("n_generations", [1, 8])
    def test_equals_two_violation_replays(self, stack, guard, n_generations):
        profile, binning = stack
        tech = TECH.scaled(retention_guard=guard)
        mprsf = MPRSFCalculator(tech, profile.geometry).mprsf_for_rows(
            profile.row_retention, binning.row_period, max_count=3
        )
        vrt = VRTModel(VRTParameters(affected_fraction=0.3, min_degradation=0.6), seed=3)
        report = vrt.integrity_report(tech, profile, binning.row_period, mprsf, n_generations)
        assert report.total_violations == vrt.integrity_violations(
            tech, profile, binning.row_period, mprsf, n_generations
        )
        assert report.raidr_baseline == vrt.integrity_violations(
            tech, profile, binning.row_period, np.zeros_like(mprsf), n_generations
        )

    def test_list_inputs(self, stack):
        profile, binning = stack
        mprsf = np.ones(len(binning.row_period), dtype=int)
        vrt = VRTModel(VRTParameters(affected_fraction=0.5, min_degradation=0.5))
        got = vrt.integrity_report(TECH, profile, list(binning.row_period), list(mprsf))
        want = vrt.integrity_report(TECH, profile, binning.row_period, mprsf)
        assert got == want

    @pytest.mark.parametrize(
        "period, mprsf, n_generations, match",
        [
            (0.0, 1, 8, "refresh periods must be positive, got 0.0"),
            (-0.064, 1, 8, "refresh periods must be positive, got -0.064"),
            (0.064, -1, 8, "mprsf must be non-negative, got -1"),
            (0.064, 1, 0, "n_generations must be >= 1, got 0"),
        ],
        ids=["zero-period", "negative-period", "negative-mprsf", "no-generations"],
    )
    def test_bad_schedule_names_integrity_violations(self, stack, period, mprsf, n_generations, match):
        profile, binning = stack
        row_period = binning.row_period.copy()
        row_period[3] = period
        counts = np.zeros(len(row_period), dtype=int)
        counts[5] = mprsf
        with pytest.raises(ValueError, match=f"^VRTModel.integrity_violations: {match}$"):
            VRTModel().integrity_report(TECH, profile, row_period, counts, n_generations)

    def test_row_count_mismatch(self, stack):
        profile, binning = stack
        with pytest.raises(ValueError, match="VRTModel.integrity_violations: .*row count"):
            VRTModel().integrity_report(TECH, profile, binning.row_period[:10], np.zeros(10, dtype=int))
