"""Per-element reference stamping: the oracle of architecture invariant 10.

:class:`ReferenceAssembler` rebuilds the whole MNA system on every
Newton iteration, element by element, into a fresh dense matrix and
solves it with ``np.linalg.solve`` — the seed solver's semantics.  The
compiled assembler (:class:`repro.circuit.compiled.CompiledCircuit`)
must produce the same ``(G, I)`` system and the same waveforms.

The element stamp protocol lives here, not in the library:
``stamp(element, G, I, x, v_prev, t, dt)`` accumulates one element's
contribution, where ``G`` is the conductance/Jacobian matrix, ``I`` the
right-hand-side current vector, ``x`` the current Newton iterate (for
linearization), ``v_prev`` the unknowns at the previous accepted time
point (for the capacitor companion model) and ``t``/``dt`` the time and
step.  Library elements are stamped by exact type (:data:`STAMPS`);
any other element must define its own ``element.stamp(G, I, x,
v_prev, t, dt)`` with custom arithmetic — the test circuits the library
solver refuses (the rescue-ladder chatter elements,
``tests/fault_injection.DivergentSource``, and the inductor and current
source of ``tests/oracle_elements.py``).  :func:`reference_session`
compiles a session to this oracle through
``repro.circuit.solver.build_assembler``, the name
``CircuitSession._ensure_compiled`` looks up at call time.
"""

from __future__ import annotations

import numpy as np

from repro.circuit import CircuitSession, solver
from repro.circuit.compiled import SingularSystemError
from repro.circuit.netlist import (
    GMIN,
    NMOS,
    PMOS,
    Capacitor,
    Circuit,
    Resistor,
    VoltageSource,
)


def _add(G: np.ndarray, i: int, j: int, value: float) -> None:
    """Stamp ``value`` at ``G[i, j]`` unless either index is ground."""
    if i >= 0 and j >= 0:
        G[i, j] += value


def _add_rhs(I: np.ndarray, i: int, value: float) -> None:
    """Stamp ``value`` into the RHS at row ``i`` unless it is ground."""
    if i >= 0:
        I[i] += value


def _volt(x: np.ndarray, i: int) -> float:
    """Voltage of matrix index ``i`` in iterate ``x`` (ground = 0)."""
    return 0.0 if i < 0 else float(x[i])


def _stamp_resistor(el: Resistor, G, I, x, v_prev, t, dt) -> None:
    g = 1.0 / el.resistance
    ia, ib = el._indices
    _add(G, ia, ia, g)
    _add(G, ib, ib, g)
    _add(G, ia, ib, -g)
    _add(G, ib, ia, -g)


def _stamp_capacitor(el: Capacitor, G, I, x, v_prev, t, dt) -> None:
    """Backward-Euler companion: ``C/dt`` in parallel with ``C/dt * V_prev``."""
    geq = el.capacitance / dt
    ia, ib = el._indices
    ieq = geq * (_volt(v_prev, ia) - _volt(v_prev, ib))
    _add(G, ia, ia, geq)
    _add(G, ib, ib, geq)
    _add(G, ia, ib, -geq)
    _add(G, ib, ia, -geq)
    _add_rhs(I, ia, ieq)
    _add_rhs(I, ib, -ieq)


def _stamp_voltage_source(el: VoltageSource, G, I, x, v_prev, t, dt) -> None:
    ia, ib = el._indices
    k = el._branch_index
    _add(G, ia, k, 1.0)
    _add(G, ib, k, -1.0)
    _add(G, k, ia, 1.0)
    _add(G, k, ib, -1.0)
    _add_rhs(I, k, el.waveform(t))


def mosfet_ids(fet, vgs: float, vds: float) -> tuple[float, float, float]:
    """Square-law drain current and partials ``(I, dI/dVgs, dI/dVds)``.

    The three-region SPICE level-1 law of an NMOS/PMOS ``fet``; assumes
    ``vds >= 0`` (the caller swaps terminals otherwise).
    """
    vov = vgs - fet.vt
    if vov <= 0.0:
        return 0.0, 0.0, 0.0
    lam_term = 1.0 + fet.lam * vds
    if vds < vov:  # triode
        i = fet.beta * (vov * vds - 0.5 * vds * vds) * lam_term
        di_dvgs = fet.beta * vds * lam_term
        di_dvds = (
            fet.beta * (vov - vds) * lam_term
            + fet.beta * (vov * vds - 0.5 * vds * vds) * fet.lam
        )
    else:  # saturation
        i = 0.5 * fet.beta * vov * vov * lam_term
        di_dvgs = fet.beta * vov * lam_term
        di_dvds = 0.5 * fet.beta * vov * vov * fet.lam
    return i, di_dvgs, di_dvds


def _stamp_mosfet(el, G, I, x, v_prev, t, dt) -> None:
    """Newton linearization: ``g_ds``, ``g_m`` and an equivalent current."""
    idx_d, idx_g, idx_s = el._indices
    pol = el.polarity
    vd = _volt(x, idx_d) * pol
    vg = _volt(x, idx_g) * pol
    vs = _volt(x, idx_s) * pol

    # The device is symmetric: conduct with the lower-potential
    # terminal acting as the source.
    if vd >= vs:
        d_idx, s_idx = idx_d, idx_s
        vgs, vds = vg - vs, vd - vs
    else:
        d_idx, s_idx = idx_s, idx_d
        vgs, vds = vg - vd, vs - vd

    ids, gm, gds = mosfet_ids(el, vgs, vds)
    gds += GMIN

    # Equivalent current for Newton: I(x) - gm*vgs - gds*vds, then the
    # linear terms are stamped as conductances.
    ieq = (ids - gm * vgs - gds * vds) * pol  # back to external polarity

    _add(G, d_idx, d_idx, gds)
    _add(G, s_idx, s_idx, gds)
    _add(G, d_idx, s_idx, -gds)
    _add(G, s_idx, d_idx, -gds)

    _add(G, d_idx, idx_g, gm)
    _add(G, d_idx, s_idx, -gm)
    _add(G, s_idx, idx_g, -gm)
    _add(G, s_idx, s_idx, gm)

    _add_rhs(I, d_idx, -ieq)
    _add_rhs(I, s_idx, ieq)


#: The library element types' stamps, keyed by exact type.
STAMPS = {
    Resistor: _stamp_resistor,
    Capacitor: _stamp_capacitor,
    VoltageSource: _stamp_voltage_source,
    NMOS: _stamp_mosfet,
    PMOS: _stamp_mosfet,
}


def stamp(element, G, I, x, v_prev, t, dt) -> None:
    """Accumulate ``element``'s contribution into ``G`` and ``I``: by its
    library type's stamp, else by its own ``stamp`` method."""
    library = STAMPS.get(type(element))
    if library is None:
        element.stamp(G, I, x, v_prev, t, dt)
    else:
        library(element, G, I, x, v_prev, t, dt)


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
        """Whether ``element`` is a library voltage source (and so is safe
        to scale during source stepping).  Custom elements are never
        scaled."""
        return type(element) is VoltageSource

    def _assemble(self, x, v_prev, t, dt, source_scale=1.0):
        """Stamp every element; returns the dense ``(G, I)``."""
        size = self.size
        G = np.zeros((size, size))
        I = np.zeros(size)
        if source_scale == 1.0:
            for element in self.circuit.elements:
                stamp(element, G, I, x, v_prev, t, dt)
        else:
            # Source stepping: library sources stamp their RHS into a
            # scratch vector that is scaled back in.  Their G entries are
            # ±1 incidence terms, unaffected by the supply level.
            I_sources = np.zeros(size)
            for element in self.circuit.elements:
                if self._is_library_source(element):
                    stamp(element, G, I_sources, x, v_prev, t, dt)
                else:
                    stamp(element, G, I, x, v_prev, t, dt)
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
