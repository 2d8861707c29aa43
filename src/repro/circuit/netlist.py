"""Netlist representation for the SPICE-lite simulator.

A :class:`Circuit` is a bag of two-/three-terminal elements wired
between named nodes.  Node ``"gnd"`` (alias :data:`GND`) is the reference
and always reads 0 V.  The element library is the set the Fig. 2
circuits need: :class:`Resistor`, :class:`Capacitor`,
:class:`VoltageSource` and the square-law :class:`NMOS` / :class:`PMOS`.
Elements hold values and terminals only; voltage sources get an extra
MNA branch-current unknown, allocated when the circuit is assembled.

The modified-nodal-analysis system they define is built by
:mod:`repro.circuit.compiled`, which recognises the library elements by
their exact type (:meth:`Circuit.partition`), extracts their structure
once and re-stamps only the nonlinear devices, vectorized, per Newton
iteration.  A per-element stamping oracle (``tests/reference_assembler.py``)
rebuilds the same system term by term (architecture invariant 10); any
other element type, a library subclass included, is refused when its
session compiles.
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

    Subclasses declare their terminals via :meth:`nodes`.  ``name`` must
    be unique within a circuit.
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

    def needs_branch(self) -> bool:
        """Whether this element requires an MNA branch-current unknown."""
        return False


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


class _MOSFET(Element):
    """Square-law (SPICE level-1) MOSFET, symmetric in drain/source.

    Whichever of drain and source sits lower acts as the source.  With
    ``vov = vgs - vt`` the drain current is ``beta (vov vds - vds^2/2)
    (1 + lam vds)`` in triode (``vds < vov``), ``beta vov^2/2 (1 + lam
    vds)`` in saturation, and 0 in cut-off (``vov <= 0``).  The Newton
    linearization stamps ``g_ds = dI/dV_ds`` and ``g_m = dI/dV_gs`` plus
    an equivalent current source, and a ``GMIN`` leak keeps cut-off
    devices from floating nodes
    (:meth:`~repro.circuit.compiled.CompiledCircuit._device_stamps`).
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


class NMOS(_MOSFET):
    """N-channel square-law MOSFET."""

    polarity = +1


class PMOS(_MOSFET):
    """P-channel square-law MOSFET (voltages mirrored internally)."""

    polarity = -1


#: Library element types the compiled assembler lowers, by exact type:
#: linear ones are stamped once per step size, nonlinear ones re-stamped
#: every Newton iteration.
_LINEAR_TYPES = (Resistor, Capacitor, VoltageSource)
_NONLINEAR_TYPES = (NMOS, PMOS)


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
        voltage-source branch.
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
        """Split the elements into ``(linear, nonlinear, opaque)`` by exact type.

        *Linear* elements (R, C, V sources) have conductance stamps that
        are constant for a fixed ``dt``, so the compiled assembler
        (:mod:`repro.circuit.compiled`) stamps them once per step size.
        *Nonlinear* elements (NMOS/PMOS) must be re-linearized every
        Newton iteration.
        Every other element is *opaque*, a subclass of a library type
        included: :func:`~repro.circuit.compiled.build_assembler` refuses
        a circuit containing any.
        """
        linear: List[Element] = []
        nonlinear: List[Element] = []
        opaque: List[Element] = []
        for element in self.elements:
            kind = type(element)
            if kind in _LINEAR_TYPES:
                linear.append(element)
            elif kind in _NONLINEAR_TYPES:
                nonlinear.append(element)
            else:
                opaque.append(element)
        return linear, nonlinear, opaque

    def initial_state(self, size: int) -> np.ndarray:
        """Initial unknown vector honoring ``set_initial`` and capacitor ICs."""
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
        return x
