"""SPICE-equivalent transient circuit simulation substrate.

The paper validates its analytical model against "detailed SPICE
simulations" (Fig. 5, Table 1).  This package provides that reference:
a small modified-nodal-analysis (MNA) transient simulator with
backward-Euler integration and Newton-Raphson handling of square-law
MOSFET models, plus netlist builders for the exact DRAM circuits of
Fig. 2 (equalization pair, charge-sharing bitline with coupling, and the
latch-based voltage sense amplifier).

The simulator is compile-then-run: a :class:`CircuitSession` compiles a
netlist's MNA structure once (linear stamps cached per step size,
MOSFETs re-linearized vectorized per Newton iteration) and then runs
fixed-step or adaptive transients against it, returning
:class:`SolverStats` telemetry with every result.  One adaptive step
controller serves both one run and a :class:`BatchedCircuitSession`
batch of ``L`` lanes in lockstep, so a one-lane batch is the adaptive
run, bit for bit.  There is one
assembler, dense (the Fig. 2 netlists have tens of unknowns), over the
library elements; an element with custom ``stamp`` arithmetic is
refused with a ``TypeError`` when its session compiles.

Typical use::

    from repro.circuit import CircuitSession, build_equalization_circuit

    session = CircuitSession(build_equalization_circuit(tech, geometry))
    result = session.simulate(t_stop=2e-9, dt=2e-12)
    v_bitline = result["bl"]
    print(result.stats.summary())
"""

from .netlist import (
    Capacitor,
    Circuit,
    CurrentSource,
    Element,
    GND,
    Inductor,
    NMOS,
    PMOS,
    Resistor,
    VoltageSource,
)
from .waveforms import Waveform, constant, step
from .rescue import ConvergenceReport, RescueAttempt
from .batched import BatchedCircuitSession, BatchedTransientResult
from .solver import (
    CircuitSession,
    ConvergenceError,
    SolverStats,
    TransientResult,
)
from .measure import delivered_energy
from .dram_circuits import (
    build_charge_sharing_circuit,
    build_equalization_circuit,
    build_refresh_circuit,
    build_sense_amplifier_circuit,
    simulate_equalization,
    simulate_presensing,
    simulate_refresh_trajectory,
)

__all__ = [
    "Capacitor",
    "Circuit",
    "CurrentSource",
    "Element",
    "GND",
    "Inductor",
    "NMOS",
    "PMOS",
    "Resistor",
    "VoltageSource",
    "Waveform",
    "constant",
    "step",
    "BatchedCircuitSession",
    "BatchedTransientResult",
    "CircuitSession",
    "ConvergenceError",
    "ConvergenceReport",
    "RescueAttempt",
    "SolverStats",
    "TransientResult",
    "delivered_energy",
    "build_charge_sharing_circuit",
    "build_equalization_circuit",
    "build_refresh_circuit",
    "build_sense_amplifier_circuit",
    "simulate_equalization",
    "simulate_presensing",
    "simulate_refresh_trajectory",
]
