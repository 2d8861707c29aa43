"""Per-element reference stamping: the oracle of architecture invariant 10.

:class:`ReferenceAssembler` rebuilds the whole MNA system on every
Newton iteration by calling each element's ``stamp`` into a fresh dense
matrix and solving it with ``np.linalg.solve`` — the seed solver's
semantics.  The compiled assembler
(:class:`repro.circuit.compiled.CompiledCircuit`) must produce the same
``(G, I)`` system and the same waveforms.

Because it calls ``stamp`` it also runs circuits holding elements with
custom ``stamp`` arithmetic, which the library solver refuses.
:func:`reference_session` compiles a session to it through
``repro.circuit.solver.build_assembler``, the name
``CircuitSession._ensure_compiled`` looks up at call time.
"""

from __future__ import annotations

import numpy as np

from repro.circuit import CircuitSession, solver
from repro.circuit.compiled import SingularSystemError
from repro.circuit.netlist import Circuit, CurrentSource, VoltageSource


class ReferenceAssembler:
    """Per-iteration reference stamping, with the rescue ladder's
    ``gshunt``/``source_scale`` deformation.

    Exposes the scalar entry points of
    :class:`~repro.circuit.compiled.CompiledCircuit`: ``prepare_step``
    and ``system_matrices``.  Constructed like
    :func:`~repro.circuit.compiled.build_assembler`, so the class itself
    can stand in for that function.
    """

    def __init__(self, circuit: Circuit, size: int):
        self.circuit = circuit
        self.size = size
        self.n_nodes = circuit.num_nodes

    @staticmethod
    def _is_library_source(element) -> bool:
        """Whether ``element`` stamps with the unmodified library V/I source
        arithmetic (and so is safe to scale during source stepping).
        Subclasses overriding ``stamp`` are never scaled."""
        return type(element).stamp in (VoltageSource.stamp, CurrentSource.stamp)

    def _assemble(self, x, v_prev, t, dt, source_scale=1.0):
        """Stamp every element; returns the dense ``(G, I)``."""
        size = self.size
        G = np.zeros((size, size))
        I = np.zeros(size)
        if source_scale == 1.0:
            for element in self.circuit.elements:
                element.stamp(G, I, x, v_prev, t, dt)
        else:
            # Source stepping: library V/I sources stamp their RHS into a
            # scratch vector that is scaled back in.  Their G entries are
            # ±1 incidence terms, unaffected by the supply level.
            I_sources = np.zeros(size)
            for element in self.circuit.elements:
                if self._is_library_source(element):
                    element.stamp(G, I_sources, x, v_prev, t, dt)
                else:
                    element.stamp(G, I, x, v_prev, t, dt)
            I += source_scale * I_sources
        return G, I

    def prepare_step(self, xp_prev, t, dt, stats, gshunt=0.0, source_scale=1.0):
        """Reference counterpart of ``CompiledCircuit.prepare_step``."""
        size, n_nodes = self.size, self.n_nodes
        v_prev = xp_prev[:size].copy()

        def iterate(xp: np.ndarray) -> np.ndarray:
            G, I = self._assemble(xp[:size], v_prev, t, dt, source_scale)
            if gshunt:
                for k in range(n_nodes):
                    G[k, k] += gshunt
            # Regularize rows untouched by any stamp (isolated nodes).
            for k in range(n_nodes):
                if G[k, k] == 0.0:
                    G[k, k] = 1e-12
            stats.factorizations += 1
            try:
                return np.linalg.solve(G, I)
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(str(exc)) from exc

        return iterate

    def system_matrices(self, x, v_prev, t, dt):
        """``(G, I)`` via the reference stamping protocol."""
        return self._assemble(x, v_prev, t, dt)


def reference_session(circuit: Circuit) -> CircuitSession:
    """A session over ``circuit`` that stamps by :class:`ReferenceAssembler`.

    ``solver.build_assembler`` is swapped for the oracle only while the
    session compiles, in the calling process; the session keeps that
    assembler until its element set changes.
    """
    session = CircuitSession(circuit)
    real = solver.build_assembler
    solver.build_assembler = ReferenceAssembler
    try:
        session._ensure_compiled()
    finally:
        solver.build_assembler = real
    return session
