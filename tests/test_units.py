"""Unit tests for repro.units."""

import math

import pytest

from repro.units import MS, NS, to_cycles


class TestToCycles:
    def test_exact_multiple(self):
        assert to_cycles(10e-9, 2e-9) == 5

    def test_rounds_up(self):
        assert to_cycles(10.1e-9, 2e-9) == 6

    def test_just_below_boundary(self):
        assert to_cycles(9.999e-9, 2e-9) == 5

    def test_zero_delay(self):
        assert to_cycles(0.0, 1e-9) == 0

    def test_tiny_delay_needs_one_cycle(self):
        assert to_cycles(1e-15, 1e-9) == 1

    def test_float_noise_does_not_bump_cycle(self):
        # 3 * (1/3) style noise must not produce an extra cycle.
        period = 2.1e-9
        assert to_cycles(4 * period * (1 + 1e-12), period) == 4

    def test_rejects_zero_period(self):
        with pytest.raises(ValueError, match="clock period"):
            to_cycles(1e-9, 0.0)

    def test_rejects_negative_period(self):
        with pytest.raises(ValueError, match="clock period"):
            to_cycles(1e-9, -1e-9)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="non-negative"):
            to_cycles(-1e-9, 1e-9)

    def test_paper_tau_full(self):
        # 19 cycles at the calibrated 2.1 ns controller clock.
        assert to_cycles(19 * 2.1 * NS, 2.1 * NS) == 19


class TestConstants:
    def test_time_hierarchy(self):
        assert NS == 1e-9
        assert MS == 1e-3
        assert math.isclose(MS / NS, 1e6)
