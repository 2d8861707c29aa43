"""Netlist representation for the SPICE-lite simulator.

A :class:`Circuit` is a bag of two-/three-/four-terminal elements wired
between named nodes.  Node ``"gnd"`` (alias :data:`GND`) is the reference
and always reads 0 V.  Elements know how to *stamp* themselves into the
modified-nodal-analysis system; the stamping protocol is:

``stamp(G, I, x, v_prev, t, dt)`` where

* ``G`` — conductance/Jacobian matrix being accumulated,
* ``I`` — right-hand-side current vector,
* ``x`` — current Newton iterate of node voltages (for linearization),
* ``v_prev`` — node voltages at the previous accepted time point
  (for capacitor companion models),
* ``t``/``dt`` — current time and step.

Voltage sources and inductors get an extra MNA branch-current unknown,
allocated by the circuit when the system is assembled.

``stamp`` is the *reference* protocol: it defines the MNA system.  The
solver does not call it — :mod:`repro.circuit.compiled` extracts the
structure of the library element types once (:meth:`Circuit.partition`)
and re-stamps only the nonlinear devices, vectorized, per Newton
iteration.  The compiled system must equal the one ``stamp`` builds
(architecture invariant 10, checked against the stamping oracle in
``tests/reference_assembler.py``); a circuit holding an element with
custom ``stamp`` arithmetic is refused when its session compiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .waveforms import Waveform, constant

#: Name of the reference node; always 0 V.
GND = "gnd"

#: Minimum conductance added across nonlinear devices for convergence.
GMIN = 1e-12


class Element:
    """Base class for netlist elements.

    Subclasses implement :meth:`stamp` and declare their terminals via
    :meth:`nodes`.  ``name`` must be unique within a circuit.
    """

    def __init__(self, name: str):
        self.name = name
        self._indices: List[int] = []

    def nodes(self) -> List[str]:
        """Names of the nodes this element connects to, in terminal order."""
        raise NotImplementedError

    def bind(self, indices: List[int], branch_index: Optional[int] = None) -> None:
        """Record the MNA matrix indices of this element's terminals.

        Called by :class:`Circuit` when the system is assembled.  Index
        ``-1`` denotes the ground node (no matrix row/column).
        """
        self._indices = indices
        self._branch_index = branch_index

    def stamp(
        self,
        G: np.ndarray,
        I: np.ndarray,
        x: np.ndarray,
        v_prev: np.ndarray,
        t: float,
        dt: float,
    ) -> None:
        """Accumulate this element's contribution into ``G`` and ``I``."""
        raise NotImplementedError

    def needs_branch(self) -> bool:
        """Whether this element requires an MNA branch-current unknown."""
        return False

    @staticmethod
    def _add(G: np.ndarray, i: int, j: int, value: float) -> None:
        """Stamp ``value`` at ``G[i, j]`` unless either index is ground."""
        if i >= 0 and j >= 0:
            G[i, j] += value

    @staticmethod
    def _add_rhs(I: np.ndarray, i: int, value: float) -> None:
        """Stamp ``value`` into the RHS at row ``i`` unless it is ground."""
        if i >= 0:
            I[i] += value

    @staticmethod
    def _volt(x: np.ndarray, i: int) -> float:
        """Voltage of matrix index ``i`` in iterate ``x`` (ground = 0)."""
        return 0.0 if i < 0 else float(x[i])


class Resistor(Element):
    """Linear resistor between nodes ``a`` and ``b``."""

    def __init__(self, name: str, a: str, b: str, resistance: float):
        super().__init__(name)
        if resistance <= 0:
            raise ValueError(f"{name}: resistance must be positive, got {resistance}")
        self.a = a
        self.b = b
        self.resistance = resistance

    def nodes(self) -> List[str]:
        return [self.a, self.b]

    def stamp(self, G, I, x, v_prev, t, dt) -> None:
        g = 1.0 / self.resistance
        ia, ib = self._indices
        self._add(G, ia, ia, g)
        self._add(G, ib, ib, g)
        self._add(G, ia, ib, -g)
        self._add(G, ib, ia, -g)


class Capacitor(Element):
    """Linear capacitor between ``a`` and ``b`` with optional initial voltage.

    During transient analysis the capacitor is replaced by its backward-
    Euler companion model: a conductance ``C/dt`` in parallel with a
    current source ``C/dt * V_prev``.
    """

    def __init__(self, name: str, a: str, b: str, capacitance: float, ic: Optional[float] = None):
        super().__init__(name)
        if capacitance <= 0:
            raise ValueError(f"{name}: capacitance must be positive, got {capacitance}")
        self.a = a
        self.b = b
        self.capacitance = capacitance
        self.ic = ic

    def nodes(self) -> List[str]:
        return [self.a, self.b]

    def stamp(self, G, I, x, v_prev, t, dt) -> None:
        geq = self.capacitance / dt
        ia, ib = self._indices
        v_prev_ab = self._volt(v_prev, ia) - self._volt(v_prev, ib)
        ieq = geq * v_prev_ab
        self._add(G, ia, ia, geq)
        self._add(G, ib, ib, geq)
        self._add(G, ia, ib, -geq)
        self._add(G, ib, ia, -geq)
        self._add_rhs(I, ia, ieq)
        self._add_rhs(I, ib, -ieq)


class VoltageSource(Element):
    """Independent voltage source ``V(a) - V(b) = waveform(t)``.

    Uses an MNA branch current so ideal sources need no series resistance.
    ``waveform`` may be a float (DC) or a callable of time.
    """

    def __init__(self, name: str, a: str, b: str, waveform):
        super().__init__(name)
        self.a = a
        self.b = b
        self.waveform: Waveform = constant(waveform) if isinstance(waveform, (int, float)) else waveform

    def nodes(self) -> List[str]:
        return [self.a, self.b]

    def needs_branch(self) -> bool:
        return True

    def stamp(self, G, I, x, v_prev, t, dt) -> None:
        ia, ib = self._indices
        k = self._branch_index
        self._add(G, ia, k, 1.0)
        self._add(G, ib, k, -1.0)
        self._add(G, k, ia, 1.0)
        self._add(G, k, ib, -1.0)
        self._add_rhs(I, k, self.waveform(t))


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
        self._add_rhs(I, ia, -value)
        self._add_rhs(I, ib, value)


class Inductor(Element):
    """Linear inductor between ``a`` and ``b`` with optional initial current.

    Carries an MNA branch-current unknown ``i`` (positive ``a`` → ``b``).
    During transient analysis the backward-Euler companion model enforces
    ``V(a) - V(b) = (L/dt) * (i - i_prev)`` — a branch "resistance"
    ``L/dt`` in series with a history voltage.  ``ic``, when given, sets
    the branch current at ``t = 0``.
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
        i_prev = float(v_prev[k])
        self._add(G, ia, k, 1.0)
        self._add(G, ib, k, -1.0)
        self._add(G, k, ia, 1.0)
        self._add(G, k, ib, -1.0)
        self._add(G, k, k, -req)
        self._add_rhs(I, k, -req * i_prev)


class _MOSFET(Element):
    """Square-law (SPICE level-1) MOSFET, symmetric in drain/source.

    The Newton linearization stamps the small-signal conductances
    ``g_ds = dI/dV_ds`` and ``g_m = dI/dV_gs`` plus an equivalent current
    source so that the solution of the linear system is the next Newton
    iterate.  A ``GMIN`` leak keeps cut-off devices from floating nodes.
    """

    polarity = +1  # +1 NMOS, -1 PMOS

    def __init__(
        self,
        name: str,
        d: str,
        g: str,
        s: str,
        beta: float,
        vt: float,
        lam: float = 0.01,
    ):
        super().__init__(name)
        if beta <= 0:
            raise ValueError(f"{name}: beta must be positive, got {beta}")
        if vt < 0:
            raise ValueError(f"{name}: threshold must be non-negative, got {vt}")
        self.d = d
        self.g = g
        self.s = s
        self.beta = beta
        self.vt = vt
        self.lam = lam

    def nodes(self) -> List[str]:
        return [self.d, self.g, self.s]

    def _ids(self, vgs: float, vds: float) -> tuple[float, float, float]:
        """Drain current and partial derivatives ``(I, dI/dVgs, dI/dVds)``.

        Assumes ``vds >= 0`` (caller swaps terminals otherwise).
        """
        vov = vgs - self.vt
        if vov <= 0.0:
            return 0.0, 0.0, 0.0
        lam_term = 1.0 + self.lam * vds
        if vds < vov:  # triode
            i = self.beta * (vov * vds - 0.5 * vds * vds) * lam_term
            di_dvgs = self.beta * vds * lam_term
            di_dvds = (
                self.beta * (vov - vds) * lam_term
                + self.beta * (vov * vds - 0.5 * vds * vds) * self.lam
            )
        else:  # saturation
            i = 0.5 * self.beta * vov * vov * lam_term
            di_dvgs = self.beta * vov * lam_term
            di_dvds = 0.5 * self.beta * vov * vov * self.lam
        return i, di_dvgs, di_dvds

    def stamp(self, G, I, x, v_prev, t, dt) -> None:
        idx_d, idx_g, idx_s = self._indices
        pol = self.polarity
        vd = self._volt(x, idx_d) * pol
        vg = self._volt(x, idx_g) * pol
        vs = self._volt(x, idx_s) * pol

        # The device is symmetric: conduct with the lower-potential
        # terminal acting as the source.
        if vd >= vs:
            d_idx, s_idx = idx_d, idx_s
            vgs, vds = vg - vs, vd - vs
        else:
            d_idx, s_idx = idx_s, idx_d
            vgs, vds = vg - vd, vs - vd

        ids, gm, gds = self._ids(vgs, vds)
        gds += GMIN

        # Equivalent current for Newton: I(x) - gm*vgs - gds*vds, then the
        # linear terms are stamped as conductances.
        ieq = ids - gm * vgs - gds * vds
        ieq *= pol  # map back to external polarity

        self._add(G, d_idx, d_idx, gds)
        self._add(G, s_idx, s_idx, gds)
        self._add(G, d_idx, s_idx, -gds)
        self._add(G, s_idx, d_idx, -gds)

        self._add(G, d_idx, idx_g, gm)
        self._add(G, d_idx, s_idx, -gm)
        self._add(G, s_idx, idx_g, -gm)
        self._add(G, s_idx, s_idx, gm)

        self._add_rhs(I, d_idx, -ieq)
        self._add_rhs(I, s_idx, ieq)


class NMOS(_MOSFET):
    """N-channel square-law MOSFET."""

    polarity = +1


class PMOS(_MOSFET):
    """P-channel square-law MOSFET (voltages mirrored internally)."""

    polarity = -1


@dataclass
class Circuit:
    """A named collection of elements with node bookkeeping.

    Nodes are created implicitly when elements referencing them are
    added.  Initial node voltages default to 0 V and can be set with
    :meth:`set_initial`; a capacitor ``ic``, when given, overrides the
    ``a``-terminal's initial voltage to ``V(b) + ic`` at ``t = 0``
    (applied after ``set_initial``, in element order).  Give coupling
    capacitors between two active nodes no ``ic`` — their initial
    difference follows from the node voltages.
    """

    name: str = "circuit"
    elements: List[Element] = field(default_factory=list)
    _node_index: Dict[str, int] = field(default_factory=dict)
    _initial: Dict[str, float] = field(default_factory=dict)

    def add(self, element: Element) -> Element:
        """Add an element, registering any new nodes it references."""
        if any(e.name == element.name for e in self.elements):
            raise ValueError(f"duplicate element name: {element.name}")
        for node in element.nodes():
            if node != GND and node not in self._node_index:
                self._node_index[node] = len(self._node_index)
        self.elements.append(element)
        return element

    def set_initial(self, node: str, voltage: float) -> None:
        """Set the initial (t=0) voltage of ``node`` for transient runs."""
        if node != GND and node not in self._node_index:
            raise KeyError(f"unknown node: {node}")
        if node == GND and voltage != 0.0:
            raise ValueError("ground is fixed at 0 V")
        if node != GND:
            self._initial[node] = voltage

    @property
    def node_names(self) -> List[str]:
        """All non-ground node names in index order."""
        return sorted(self._node_index, key=self._node_index.get)

    @property
    def num_nodes(self) -> int:
        """Number of non-ground nodes."""
        return len(self._node_index)

    def node_id(self, node: str) -> int:
        """Matrix index of ``node`` (-1 for ground)."""
        if node == GND:
            return -1
        return self._node_index[node]

    def assemble(self) -> int:
        """Bind element terminals to matrix indices; returns system size.

        The system has one unknown per non-ground node plus one per
        branch element (voltage source or inductor).
        """
        n_nodes = self.num_nodes
        branch = n_nodes
        for element in self.elements:
            indices = [self.node_id(node) for node in element.nodes()]
            if element.needs_branch():
                element.bind(indices, branch)
                branch += 1
            else:
                element.bind(indices)
        return branch

    def partition(self) -> "tuple[List[Element], List[Element], List[Element]]":
        """Split the elements into ``(linear, nonlinear, opaque)``.

        *Linear* elements (R, L, C, V/I sources) have conductance stamps
        that are constant for a fixed ``dt``, so the compiled assembler
        (:mod:`repro.circuit.compiled`) stamps them once per step size.
        *Nonlinear* elements (square-law MOSFETs) must be re-linearized
        every Newton iteration.  *Opaque* elements are user subclasses
        with custom ``stamp`` arithmetic the compiler cannot describe —
        :func:`~repro.circuit.compiled.build_assembler` refuses a circuit
        containing any.
        """
        linear: List[Element] = []
        nonlinear: List[Element] = []
        opaque: List[Element] = []
        for element in self.elements:
            cls = type(element)
            if isinstance(element, Resistor) and cls.stamp is Resistor.stamp:
                linear.append(element)
            elif isinstance(element, Capacitor) and cls.stamp is Capacitor.stamp:
                linear.append(element)
            elif isinstance(element, Inductor) and cls.stamp is Inductor.stamp:
                linear.append(element)
            elif isinstance(element, VoltageSource) and cls.stamp is VoltageSource.stamp:
                linear.append(element)
            elif isinstance(element, CurrentSource) and cls.stamp is CurrentSource.stamp:
                linear.append(element)
            elif (
                isinstance(element, _MOSFET)
                and cls.stamp is _MOSFET.stamp
                and cls._ids is _MOSFET._ids
            ):
                nonlinear.append(element)
            else:
                opaque.append(element)
        return linear, nonlinear, opaque

    def initial_state(self, size: int) -> np.ndarray:
        """Initial unknown vector honoring ``set_initial`` and L/C ICs."""
        x = np.zeros(size)
        for node, voltage in self._initial.items():
            x[self._node_index[node]] = voltage
        for element in self.elements:
            if isinstance(element, Capacitor) and element.ic is not None:
                ia = self.node_id(element.a)
                ib = self.node_id(element.b)
                vb = 0.0 if ib < 0 else x[ib]
                if ia >= 0:
                    x[ia] = vb + element.ic
            elif isinstance(element, Inductor) and element.ic is not None:
                x[element._branch_index] = element.ic
        return x
