"""Time-domain source waveforms for the transient simulator.

A waveform is any callable ``f(t) -> volts``.  These factories cover
everything the DRAM netlists need: constants and steps with finite rise
time.

Factories annotate the returned callable with a ``breakpoints``
attribute — the times where the waveform's slope is discontinuous.
The adaptive integrator (:meth:`CircuitSession.simulate`) harvests
these so a variable time step always lands exactly on source events
instead of smearing them across a long step.  Custom waveforms may set
the same attribute; callables without it are treated as smooth.
"""

from __future__ import annotations

from typing import Callable

#: Type alias for a time-domain waveform.
Waveform = Callable[[float], float]


def constant(value: float) -> Waveform:
    """A DC source fixed at ``value`` volts."""

    def _wave(t: float) -> float:
        return value

    return _wave


def step(v_initial: float, v_final: float, t_step: float, t_rise: float = 10e-12) -> Waveform:
    """A step from ``v_initial`` to ``v_final`` at ``t_step``.

    A finite linear ramp of ``t_rise`` seconds keeps the Newton solver
    well-conditioned (an ideal step would inject an impulse into every
    coupled capacitor).
    """
    if t_rise <= 0:
        raise ValueError(f"rise time must be positive, got {t_rise}")

    def _wave(t: float) -> float:
        if t <= t_step:
            return v_initial
        if t >= t_step + t_rise:
            return v_final
        frac = (t - t_step) / t_rise
        return v_initial + frac * (v_final - v_initial)

    _wave.breakpoints = (t_step, t_step + t_rise)
    return _wave
