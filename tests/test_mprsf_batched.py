"""Vectorized MPRSF calibration: batched paths vs the scalar oracles.

The batched MPRSF iteration (:meth:`MPRSFCalculator.mprsf_for_points`)
and the vectorized restoration map
(:meth:`RefreshLatencyModel.restored_fractions`) are pure
reorganizations of the scalar per-cell arithmetic — every decay factor
comes from the same ``math.exp`` call, every restore from the same
closed form — so their contract is **exact** equality with the scalar
loop, not a tolerance (architecture invariant 14).  These hypothesis
properties pin that over random retention profiles, refresh periods,
and temperature deratings.  The circuit cross-check lanes
(:meth:`circuit_restored_fractions`) go through the batched transient
solver and inherit its documented 2 mV envelope instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mprsf import CalibrationResult, MPRSFCalculator, TauPartialOptimizer
from repro.retention import DataPattern
from repro.retention.temperature import TemperatureModel
from repro.runner.cells import CELL_KINDS
from repro.service import Query
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.units import MS

TECH = DEFAULT_TECH

#: Retention times in seconds (paper range: tens of ms to seconds).
retention_arrays = st.lists(
    st.floats(min_value=0.05, max_value=5.0, allow_nan=False), min_size=1, max_size=24
).map(lambda xs: np.array(xs))

#: Refresh periods drawn from the binning grid the optimizer uses.
period_values = st.sampled_from([64 * MS, 128 * MS, 256 * MS])


@pytest.fixture(scope="module")
def calc():
    return MPRSFCalculator(TECH)


class TestPointsMatchScalarExactly:
    @settings(max_examples=40, deadline=None)
    @given(retention=retention_arrays, period=period_values)
    def test_random_profiles(self, calc, retention, period):
        periods = np.full(retention.shape, period)
        batched = calc.mprsf_for_points(retention, periods, max_count=16)
        assert batched.shape == retention.shape
        for i, r in enumerate(retention):
            assert batched[i] == calc.mprsf_for_cell(
                float(r), period, max_count=16
            )

    @settings(max_examples=20, deadline=None)
    @given(
        retention=retention_arrays,
        temperature=st.floats(min_value=45.0, max_value=95.0),
    )
    def test_temperature_derated_profiles(self, calc, retention, temperature):
        # Derate the profile the way the temperature study does, then
        # demand the batched loop still matches cell for cell.
        derated = retention * TemperatureModel().retention_factor(temperature)
        periods = np.full(retention.shape, 64 * MS)
        batched = calc.mprsf_for_points(derated, periods, max_count=16)
        for i, r in enumerate(derated):
            assert batched[i] == calc.mprsf_for_cell(float(r), 64 * MS, max_count=16)

    def test_pattern_and_guard_flags_thread_through(self, calc):
        retention = np.array([0.07, 0.09, 0.4, 2.0])
        periods = np.full(4, 64 * MS)
        for pattern in (None, DataPattern.ALTERNATING, DataPattern.ALL_ONES):
            for guard in (True, False):
                batched = calc.mprsf_for_points(
                    retention, periods, pattern=pattern, apply_guard=guard
                )
                expect = [
                    calc.mprsf_for_cell(
                        float(r), 64 * MS, pattern=pattern, apply_guard=guard
                    )
                    for r in retention
                ]
                assert batched.tolist() == expect

    def test_preserves_2d_shape(self, calc):
        retention = np.array([[0.07, 0.5], [1.0, 3.0]])
        periods = np.full((2, 2), 128 * MS)
        out = calc.mprsf_for_points(retention, periods, max_count=8)
        assert out.shape == (2, 2)
        flat = calc.mprsf_for_points(retention.ravel(), periods.ravel(), max_count=8)
        np.testing.assert_array_equal(out.ravel(), flat)

    def test_rejects_bad_inputs(self, calc):
        with pytest.raises(ValueError, match="shape mismatch"):
            calc.mprsf_for_points(np.ones(3), np.ones(2))
        with pytest.raises(ValueError, match="max_count"):
            calc.mprsf_for_points(np.ones(2), np.ones(2), max_count=-1)
        with pytest.raises(ValueError, match="period"):
            calc.mprsf_for_points(np.ones(2), np.array([0.064, 0.0]))


class TestRowsMatchScalarExactly:
    @settings(max_examples=25, deadline=None)
    @given(retention=retention_arrays, period=period_values)
    def test_equals_memoized_scalar_loop(self, calc, retention, period):
        periods = np.full(retention.shape, period)
        vector = calc.mprsf_for_rows(retention, periods, max_count=16)
        for i, r in enumerate(retention):
            # The row path quantizes retention to ms (its memoization
            # grain) before evaluating, exactly as the old loop did.
            quantized = int(round(float(r) * 1000)) / 1000.0
            assert vector[i] == calc.mprsf_for_cell(quantized, period, max_count=16)

    def test_duplicate_rows_collapse_to_one_evaluation(self, calc):
        retention = np.array([0.2, 0.2, 0.2, 0.9, 0.9])
        periods = np.full(5, 64 * MS)
        out = calc.mprsf_for_rows(retention, periods, max_count=16)
        assert out[0] == out[1] == out[2] and out[3] == out[4]

    def test_empty_input(self, calc):
        out = calc.mprsf_for_rows(np.array([]), np.array([]))
        assert out.shape == (0,) and out.dtype == np.int64


class TestRestoredFractionsVector:
    @settings(max_examples=40, deadline=None)
    @given(
        starts=st.lists(
            st.floats(min_value=0.0, max_value=1.1, allow_nan=False),
            min_size=1,
            max_size=16,
        ).map(lambda xs: np.array(xs)),
        truncate=st.booleans(),
    )
    def test_bit_identical_to_scalar(self, calc, starts, truncate):
        timing = calc.model.partial_refresh()
        vector = calc.model.restored_fractions(starts, timing, truncate=truncate)
        for i, s in enumerate(starts):
            scalar = calc.model.restored_fraction(
                float(s), timing, truncate=truncate
            )
            assert vector[i] == scalar  # exactly: same exp, same algebra

    def test_rejects_negative_charge(self, calc):
        with pytest.raises(ValueError, match="negative"):
            calc.model.restored_fractions(
                np.array([0.5, -0.1]), calc.model.partial_refresh()
            )


class TestCircuitBatchedCrossCheck:
    def test_matches_scalar_circuit_within_envelope(self, calc):
        timing = calc.model.partial_refresh()
        starts = np.linspace(0.75, 0.95, 5)
        batched = calc.circuit_restored_fractions(starts, timing)
        assert batched.shape == starts.shape
        for i, s in enumerate(starts):
            scalar = calc.circuit_restored_fraction(float(s), timing)
            # 2 mV circuit envelope, in fraction-of-Vdd units.
            assert abs(batched[i] - scalar) <= 2e-3 / calc.tech.vdd

    def test_sessions_keyed_by_timing_and_geometry(self):
        # Satellite: two calculators with different geometries must not
        # alias one batched session even for identical timings.
        small = MPRSFCalculator(TECH, BankGeometry(rows=512, cols=32))
        big = MPRSFCalculator(TECH, BankGeometry(rows=8192, cols=32))
        timing = small.model.partial_refresh()
        key_small = small._session_key(timing)
        key_big = big._session_key(timing)
        assert key_small != key_big
        assert key_small[-2:] == (512, 32) and key_big[-2:] == (8192, 32)
        session = small._session_for(timing)
        assert small._session_for(timing) is session  # memoized
        assert small._sessions[key_small] is session


class TestCalibrate:
    @pytest.fixture(scope="class")
    def calibration(self):
        optimizer = TauPartialOptimizer(TECH)
        return optimizer.calibrate(np.linspace(0.75, 0.95, 5))

    def test_analytic_tracks_circuit(self, calibration):
        assert isinstance(calibration, CalibrationResult)
        assert calibration.max_abs_error < 0.05  # same bound as Fig. 5 test
        assert calibration.analytic_fractions.shape == (5,)
        assert calibration.circuit_fractions.shape == (5,)
        assert calibration.tau_partial_cycles > 0

    def test_error_is_max_of_residuals(self, calibration):
        residual = np.abs(
            calibration.analytic_fractions - calibration.circuit_fractions
        )
        assert calibration.max_abs_error == pytest.approx(float(residual.max()))

    def test_rejects_empty_profile(self):
        with pytest.raises(ValueError, match="non-empty"):
            TauPartialOptimizer(TECH).calibrate(np.array([]))


class TestCalibrateSolvesEachTransientOnce:
    """Targets that quantize to one timing share one batched transient."""

    def test_default_targets_run_two_transients(self, monkeypatch):
        from repro.circuit import BatchedCircuitSession
        from repro.experiments.calibration_study import (
            DEFAULT_POINTS,
            DEFAULT_START_HI,
            DEFAULT_START_LO,
            DEFAULT_TARGETS,
        )

        calls = []
        original = BatchedCircuitSession.simulate_batch

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BatchedCircuitSession, "simulate_batch", counting)
        optimizer = TauPartialOptimizer(TECH)
        starts = np.linspace(DEFAULT_START_LO, DEFAULT_START_HI, DEFAULT_POINTS)
        results = [optimizer.calibrate(starts, target) for target in DEFAULT_TARGETS]
        assert len(calls) == 2
        default, ninety = results[0], results[1]
        assert default.tau_partial_cycles == ninety.tau_partial_cycles
        assert np.array_equal(default.circuit_fractions, ninety.circuit_fractions)
        # Each call hands out its own array: mutating one leaves the memo intact.
        default.circuit_fractions[:] = 0.0
        again = optimizer.calibrate(starts, DEFAULT_TARGETS[0])
        assert np.array_equal(again.circuit_fractions, ninety.circuit_fractions)
        assert len(calls) == 2


class TestCalibrationSweepCell:
    def test_registered(self):
        assert "calibration-sweep" in CELL_KINDS

    def test_cell_runs_from_query_params(self):
        query = Query(
            kind="calibration-sweep",
            tech=TECH,
            rows=512,
            cols=32,
            restore_fraction=0.95,
            start_lo=0.75,
            start_hi=0.95,
            n_points=4,
        )
        assert query.label == "calibrate/0.95x4"
        payload = CELL_KINDS["calibration-sweep"](query.params())
        assert payload["tau_partial_cycles"] > 0
        assert len(payload["circuit_fractions"]) == 4
        assert payload["max_abs_error"] < 0.05

    def test_default_target_label(self):
        query = Query(
            kind="calibration-sweep",
            tech=TECH,
            rows=512,
            cols=32,
            start_lo=0.75,
            start_hi=0.95,
            n_points=4,
        )
        assert query.label == "calibrate/defaultx4"

    def test_requires_profile_fields(self):
        with pytest.raises(ValueError, match="requires"):
            Query(kind="calibration-sweep", tech=TECH, rows=512, cols=32)
