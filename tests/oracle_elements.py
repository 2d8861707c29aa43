"""An inductor and a current source, solved on the stamping oracle.

The library's element set is what the Fig. 2 netlists need (R, C, V
sources, NMOS/PMOS), and the compiled assembler refuses anything else.
These two elements keep the solver's step controller checked on an
oscillator (a series RLC ringdown) and on a current-driven node: each
carries its own ``stamp`` in the protocol of
:mod:`tests.reference_assembler`, so a session over them runs through
:func:`~tests.reference_assembler.reference_session`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.circuit import GND, Capacitor, Circuit, Element, Resistor, VoltageSource, step
from repro.circuit.waveforms import Waveform, constant
from tests.reference_assembler import _add, _add_rhs


class CurrentSource(Element):
    """Independent current source pushing current from ``a`` into ``b``."""

    def __init__(self, name: str, a: str, b: str, waveform):
        super().__init__(name)
        self.a = a
        self.b = b
        self.waveform: Waveform = constant(waveform) if isinstance(waveform, (int, float)) else waveform

    def nodes(self) -> List[str]:
        return [self.a, self.b]

    def stamp(self, G, I, x, v_prev, t, dt) -> None:
        ia, ib = self._indices
        value = self.waveform(t)
        _add_rhs(I, ia, -value)
        _add_rhs(I, ib, value)


class Inductor(Element):
    """Linear inductor between ``a`` and ``b`` with optional initial current.

    Carries an MNA branch-current unknown ``i`` (positive ``a`` → ``b``).
    The backward-Euler companion model enforces ``V(a) - V(b) = (L/dt)
    * (i - i_prev)``: a branch "resistance" ``L/dt`` in series with a
    history voltage.  ``ic``, when given, sets the branch current at
    ``t = 0`` in an :class:`InductorCircuit`.
    """

    def __init__(self, name: str, a: str, b: str, inductance: float, ic: Optional[float] = None):
        super().__init__(name)
        if inductance <= 0:
            raise ValueError(f"{name}: inductance must be positive, got {inductance}")
        self.a = a
        self.b = b
        self.inductance = inductance
        self.ic = ic

    def nodes(self) -> List[str]:
        return [self.a, self.b]

    def needs_branch(self) -> bool:
        return True

    def stamp(self, G, I, x, v_prev, t, dt) -> None:
        ia, ib = self._indices
        k = self._branch_index
        req = self.inductance / dt
        _add(G, ia, k, 1.0)
        _add(G, ib, k, -1.0)
        _add(G, k, ia, 1.0)
        _add(G, k, ib, -1.0)
        _add(G, k, k, -req)
        _add_rhs(I, k, -req * float(v_prev[k]))


class InductorCircuit(Circuit):
    """A :class:`~repro.circuit.Circuit` whose initial state also sets
    each inductor's branch current to its ``ic``."""

    def initial_state(self, size: int) -> np.ndarray:
        x = super().initial_state(size)
        for element in self.elements:
            if isinstance(element, Inductor) and element.ic is not None:
                x[element._branch_index] = element.ic
        return x


def driven_rc(extra):
    """A stepped source into an RC whose middle branch is ``extra``'s:
    an inductor with an initial current, or a resistor with a stepped
    current source pulling on the output."""

    def build():
        circuit = InductorCircuit(name=f"driven-{extra}")
        circuit.add(VoltageSource("V1", "in", GND, step(0.0, 1.0, 1e-10)))
        circuit.add(Resistor("R1", "in", "mid", 1e3))
        if extra == "inductor":
            circuit.add(Inductor("L1", "mid", "out", 1e-8, ic=1e-4))
        else:
            circuit.add(Resistor("R2", "mid", "out", 1e3))
            circuit.add(CurrentSource("I1", GND, "out", step(0.0, 2e-4, 3e-10)))
        circuit.add(Capacitor("C1", "out", GND, 1e-13))
        return circuit

    return build


#: Netlists with the elements the library refuses; their sessions run
#: on the stamping oracle.
ORACLE_NETLISTS = {
    "inductor": driven_rc("inductor"),
    "current-source": driven_rc("current-source"),
}
