"""Property-based tests (hypothesis) on core invariants."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.controller import CounterFile
from repro.model import LeakageModel, PostSensingModel, PreSensingModel
from repro.mprsf import MPRSFCalculator
from repro.retention import RefreshBinning, RetentionProfile
from repro.sim import DRAMTiming, period_cycles
from repro.technology import BankGeometry, DEFAULT_GEOMETRY, DEFAULT_TECH
from repro.units import to_cycles

TECH = DEFAULT_TECH


class TestToCyclesProperties:
    @given(
        t=st.floats(min_value=0, max_value=1e-3, allow_nan=False),
        period=st.floats(min_value=1e-12, max_value=1e-6, allow_nan=False),
    )
    @example(t=1e-4, period=1e-12)
    def test_cycles_cover_delay(self, t, period):
        """The quantized window covers the delay up to the float-noise guard.

        ``to_cycles`` deliberately ignores delays below its noise guard
        (floating-point noise, not physics), so coverage is asserted in
        ratio space, the quantity the guard acts on: ``cycles * period``
        can round below ``t`` by an ulp even when the count is right.
        """
        cycles = to_cycles(t, period)
        ratio = t / period
        assert cycles >= ratio - max(1e-9, 4 * math.ulp(ratio))

    @given(
        k=st.integers(min_value=10**7, max_value=10**8),
        period=st.floats(min_value=1e-10, max_value=1e-8),
    )
    @example(k=99_999_999, period=2.1e-9)
    def test_exact_multiples_at_refresh_magnitudes(self, k, period):
        """An exact multiple of the clock quantizes to its multiplier.

        Refresh periods are 10^7-10^8 controller cycles, where one ulp
        of the cycle ratio exceeds an absolute 1e-9 guard.
        """
        assert to_cycles(k * period, period) == k

    @settings(max_examples=50)
    @given(
        ks=st.lists(st.integers(min_value=10**7, max_value=10**8), min_size=1, max_size=16),
        tck=st.floats(min_value=1e-10, max_value=1e-8),
    )
    def test_period_cycles_matches_per_row_to_cycles(self, ks, tck):
        """``sim.schedule.period_cycles`` equals per-row ``to_cycles``."""
        periods = np.array([k * tck for k in ks])
        policy = SimpleNamespace(row_periods=lambda: periods)
        got = period_cycles(policy, DRAMTiming(tck=tck))
        assert got.tolist() == [to_cycles(float(p), tck) for p in periods]
        assert got.tolist() == ks

    @given(
        t=st.floats(min_value=1e-12, max_value=1e-3, allow_nan=False),
        period=st.floats(min_value=1e-12, max_value=1e-6, allow_nan=False),
    )
    def test_minimality(self, t, period):
        """One fewer cycle would not cover the delay."""
        cycles = to_cycles(t, period)
        if cycles > 0:
            assert (cycles - 1) * period < t * (1 + 1e-6)


class TestLeakageProperties:
    @given(
        retention=st.floats(min_value=0.065, max_value=10.0),
        t1=st.floats(min_value=0.0, max_value=0.5),
        t2=st.floats(min_value=0.0, max_value=0.5),
        start=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_decay_composes(self, retention, t1, t2, start):
        model = LeakageModel(TECH)
        direct = model.fraction_after(start, t1 + t2, retention)
        stepped = model.fraction_after(model.fraction_after(start, t1, retention), t2, retention)
        assert direct == pytest.approx(stepped, rel=1e-9)

    @given(
        retention=st.floats(min_value=0.065, max_value=10.0),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_decay_bounded(self, retention, t):
        model = LeakageModel(TECH)
        out = model.fraction_after(1.0, t, retention)
        assert 0.0 < out <= 1.0


class TestSaturatingCounterProperties:
    @given(
        nbits=st.integers(min_value=1, max_value=8),
        operations=st.lists(st.sampled_from(["inc", "reset"]), max_size=50),
    )
    def test_never_exceeds_width(self, nbits, operations):
        counter = CounterFile(1, nbits)
        for op in operations:
            if op == "inc":
                counter.increment(0)
            else:
                counter.reset(0)
            assert 0 <= counter.get(0) <= counter.max_value


class TestPreSensingProperties:
    @given(
        rows=st.integers(min_value=256, max_value=32768),
        t_ratio=st.floats(min_value=0.01, max_value=20.0),
    )
    @settings(max_examples=30)
    def test_u_decreasing_in_time(self, rows, t_ratio):
        model = PreSensingModel(TECH, BankGeometry(rows, 32))
        t = t_ratio * 1e-9
        assert model.u(t) > model.u(t * 1.5)

    @given(
        pattern=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=16)
    )
    @settings(max_examples=50)
    def test_coupled_solution_satisfies_eq7(self, pattern):
        """K V = K1 L for every data pattern (the Eq. 8 closed form)."""
        model = PreSensingModel(TECH, DEFAULT_GEOMETRY)
        vs = model.vsense_pattern(pattern)
        K = model.coupling_matrix(len(pattern))
        v_cells = [TECH.vdd if b else TECH.vss for b in pattern]
        residual = K @ vs - model.k1 * model.lself(v_cells)
        assert float(np.max(np.abs(residual))) < 1e-12

    @given(
        pattern=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12)
    )
    @settings(max_examples=50)
    def test_coupled_swing_bounded(self, pattern):
        """No coupled swing exceeds the uniform-pattern interior bound."""
        model = PreSensingModel(TECH, DEFAULT_GEOMETRY)
        vs = np.abs(model.vsense_pattern(pattern))
        bound = model.k1 * (TECH.vdd - TECH.veq) / (1 - 2 * model.k2)
        assert vs.max() <= bound * (1 + 1e-9)


class TestPostSensingProperties:
    @given(
        fraction=st.floats(min_value=0.7, max_value=0.999),
        start=st.floats(min_value=0.0, max_value=0.8),
    )
    @settings(max_examples=50)
    def test_time_to_fraction_inverse(self, fraction, start):
        model = PostSensingModel(TECH, DEFAULT_GEOMETRY)
        v_start = start * TECH.vdd
        t = model.time_to_fraction(fraction, v_start, TECH.sense_margin)
        v = model.restore_voltage(v_start, t, TECH.sense_margin)
        assert v >= fraction * TECH.vdd * (1 - 1e-9)


class TestBinningProperties:
    @given(
        retentions=st.lists(
            st.floats(min_value=0.064, max_value=8.0), min_size=1, max_size=64
        )
    )
    @settings(max_examples=50)
    def test_assigned_period_never_exceeds_retention(self, retentions):
        """Data-integrity invariant of RAIDR binning."""
        geometry = BankGeometry(len(retentions), 1)
        profile = RetentionProfile(geometry, np.asarray(retentions))
        result = RefreshBinning().assign(profile)
        assert (result.row_period <= np.asarray(retentions) + 1e-12).all()

    @given(
        retentions=st.lists(
            st.floats(min_value=0.001, max_value=8.0), min_size=1, max_size=64
        )
    )
    @settings(max_examples=50)
    def test_every_row_gets_a_valid_period(self, retentions):
        geometry = BankGeometry(len(retentions), 1)
        profile = RetentionProfile(geometry, np.asarray(retentions))
        result = RefreshBinning().assign(profile)
        assert set(np.unique(result.row_period)) <= set(result.periods)


class TestMPRSFProperties:
    @given(
        ret_a=st.floats(min_value=0.065, max_value=4.0),
        ret_b=st.floats(min_value=0.065, max_value=4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_retention(self, ret_a, ret_b):
        calc = MPRSFCalculator(TECH)
        lo, hi = sorted((ret_a, ret_b))
        m_lo = calc.mprsf_for_cell(lo, 0.064, max_count=8)
        m_hi = calc.mprsf_for_cell(hi, 0.064, max_count=8)
        assert m_lo <= m_hi

