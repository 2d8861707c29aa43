"""Waveform measurement (the SPICE ``.MEASURE`` equivalent the drivers use).

:func:`delivered_energy` integrates a voltage source's power over a
:class:`~repro.circuit.solver.TransientResult`; the ``validate`` verb
checks the refresh power model against it.
"""

from __future__ import annotations

import numpy as np

from ..guard import assert_finite
from .netlist import VoltageSource
from .solver import TransientResult


def delivered_energy(result: TransientResult, source: VoltageSource) -> float:
    """Energy a voltage source delivered to the circuit over the run (joules).

    Trapezoidal integral of ``V(t) * I(t)`` using the source's waveform
    and its recorded branch current (``record_currents=[source.name]``
    must have been passed to the solver).  Positive means the source
    supplied energy — e.g. the ``V_dd`` rail during sense amplification,
    which is the circuit-level ground truth the
    :class:`~repro.power.drampower.RefreshPowerModel` is validated
    against.
    """
    current = result.current(source.name)
    voltage = np.array([source.waveform(float(t)) for t in result.time])
    energy = float(np.trapezoid(voltage * current, result.time))
    return assert_finite(energy, "circuit.measure.delivered_energy", source.name)

