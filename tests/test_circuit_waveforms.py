"""Unit tests for repro.circuit.waveforms, and the pulse source the
circuit tests build from its steps."""

import pytest

from repro.circuit import Waveform, constant, step


def pulse(
    v_low: float,
    v_high: float,
    t_start: float,
    width: float,
    t_rise: float = 10e-12,
    t_fall: float = 10e-12,
) -> Waveform:
    """A single pulse from ``v_low`` to ``v_high`` starting at ``t_start``.

    The sum of a rising and a falling :func:`step`; its breakpoints are
    both steps' (four), which the adaptive stepper must land on.
    """
    if width <= 0:
        raise ValueError(f"pulse width must be positive, got {width}")
    rising = step(v_low, v_high, t_start, t_rise)
    falling = step(0.0, v_low - v_high, t_start + width, t_fall)

    def _wave(t: float) -> float:
        return rising(t) + falling(t)

    _wave.breakpoints = rising.breakpoints + falling.breakpoints
    return _wave


class TestConstant:
    def test_value_everywhere(self):
        w = constant(0.6)
        assert w(0.0) == 0.6
        assert w(-1.0) == 0.6
        assert w(1e6) == 0.6


class TestStep:
    def test_before_and_after(self):
        w = step(0.0, 1.2, t_step=1e-9, t_rise=1e-12)
        assert w(0.0) == 0.0
        assert w(1e-9) == 0.0
        assert w(2e-9) == 1.2

    def test_ramp_midpoint(self):
        w = step(0.0, 1.0, t_step=0.0, t_rise=2e-12)
        assert w(1e-12) == pytest.approx(0.5)

    def test_falling_step(self):
        w = step(1.6, 0.0, t_step=1e-9, t_rise=1e-12)
        assert w(0.5e-9) == 1.6
        assert w(2e-9) == 0.0

    def test_rejects_non_positive_rise(self):
        with pytest.raises(ValueError, match="rise"):
            step(0, 1, 0, t_rise=0.0)


class TestPulse:
    def test_shape(self):
        w = pulse(0.0, 1.0, t_start=1e-9, width=2e-9, t_rise=1e-12, t_fall=1e-12)
        assert w(0.5e-9) == pytest.approx(0.0)
        assert w(2e-9) == pytest.approx(1.0)
        assert w(5e-9) == pytest.approx(0.0)

    def test_nonzero_low_level(self):
        w = pulse(0.3, 1.0, t_start=0.0, width=1e-9, t_rise=1e-12, t_fall=1e-12)
        assert w(2e-9) == pytest.approx(0.3)

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError, match="width"):
            pulse(0, 1, 0, width=0.0)
