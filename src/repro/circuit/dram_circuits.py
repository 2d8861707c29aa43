"""Netlist builders for the DRAM circuits of Fig. 2 of the paper.

Each builder returns a :class:`~repro.circuit.netlist.Circuit` wired from
the technology parameters, ready for :class:`~repro.circuit.solver.CircuitSession`:

* :func:`build_equalization_circuit` — Fig. 2a: a bitline pair with the
  equalization transistors M2/M3 driving ``V_eq`` (used for Fig. 5).
* :func:`build_charge_sharing_circuit` — Fig. 2b/2c: one or more cells
  sharing charge with their bitlines through access transistors,
  including bitline-to-bitline (``C_bb``) and bitline-to-wordline
  (``C_bw``) coupling and a distributed-RC wordline (Table 1 "SPICE"
  column).
* :func:`build_sense_amplifier_circuit` — Fig. 2d: the latch-based
  voltage sense amplifier.
* :func:`build_refresh_circuit` — the full refresh chain (equalize →
  share → sense/restore) used to trace the charge-restoration curve of
  Fig. 1a.

The ``simulate_*`` helpers wrap builder + solver + standard control
waveforms and return the raw transient result (with
:class:`~repro.circuit.solver.SolverStats` telemetry attached), leaving
measurement to the callers (``repro.experiments``).  Sweeps that re-run
the refresh netlist with varying initial cell charge should hold one
:class:`~repro.circuit.solver.CircuitSession` over
:func:`build_refresh_circuit` and pass ``initial_overrides`` instead of
rebuilding the circuit per point (as ``MPRSFCalculator`` does).

A window of a few coupled bitlines stands in for the full wordline: the
Eq. 7 coupling is nearest-neighbour, so a 5-bitline window around the
victim captures the same interaction while keeping the MNA system small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..technology import BankGeometry, TechnologyParams
from .netlist import Capacitor, Circuit, GND, NMOS, PMOS, Resistor, VoltageSource
from .solver import CircuitSession, TransientResult
from .waveforms import constant, step

#: Number of coupled bitlines simulated around the victim cell.
BITLINE_WINDOW = 5

#: Number of lumped RC segments approximating the distributed wordline.
WORDLINE_SEGMENTS = 8

#: Number of lumped RC segments approximating the distributed bitline.
#: Distribution matters: the cell at the far end must charge the whole
#: line's capacitance through the access transistor, which is where the
#: ``R_pre C_bl`` time constant of Eq. 3 physically comes from.
BITLINE_SEGMENTS = 6


@dataclass(frozen=True)
class RefreshPhases:
    """Control-waveform schedule for a full refresh transient.

    Times are absolute simulation times (seconds): the equalizer is on
    during ``[0, t_eq_off]``, the wordline rises at ``t_wl_on``, and the
    sense amplifier is enabled at ``t_sa_on``.
    """

    t_eq_off: float
    t_wl_on: float
    t_sa_on: float


#: Default refresh schedule: equalize for 1 ns, fire the wordline, then
#: enable the sense amplifier 3 ns later (after the differential develops).
DEFAULT_REFRESH_PHASES = RefreshPhases(t_eq_off=1.0e-9, t_wl_on=1.1e-9, t_sa_on=4.0e-9)


def _bitline_rc(
    circuit: Circuit,
    tech: TechnologyParams,
    geometry: BankGeometry,
    name: str,
    v_initial: float,
    segments: int = BITLINE_SEGMENTS,
) -> str:
    """Add one distributed bitline and return its cell-side (far) node.

    The line is a ``segments``-stage RC ladder between the cell-side
    node ``<name>`` and the sense-amplifier-side node ``<name>_sa``,
    carrying ``C_bl`` and ``R_bl`` in total.  A distributed line — not a
    lumped capacitor — is essential: during charge sharing the far-end
    cell supplies charge to the *whole* line through the access
    transistor, producing the ``R_pre C_bl`` settling of Eq. 3 that the
    analytical model (and Table 1) rely on.
    """
    c_seg = tech.cbl(geometry) / segments
    r_seg = tech.rbl(geometry) / segments
    prev = f"{name}_sa"
    for k in range(segments):
        node = name if k == segments - 1 else f"{name}_seg{k}"
        circuit.add(Resistor(f"R_{name}{k}", prev, node, r_seg))
        circuit.add(Capacitor(f"C_{name}{k}", node, GND, c_seg, ic=v_initial))
        prev = node
    # The SA-side node exists now (the first ladder resistor created it).
    circuit.set_initial(f"{name}_sa", v_initial)
    return name


def build_equalization_circuit(
    tech: TechnologyParams,
    geometry: BankGeometry,
    t_eq_on: float = 0.05e-9,
) -> Circuit:
    """Fig. 2a: bitline pair + equalization transistors.

    Initial condition is the post-activation state (``B_i`` at ``V_dd``,
    its complement at ``V_ss``); the ``EQ`` gate steps to ``V_pp`` at
    ``t_eq_on`` and both bitlines are driven toward ``V_eq``.
    """
    circuit = Circuit(name=f"equalization-{geometry}")
    _bitline_rc(circuit, tech, geometry, "bl", tech.vdd)
    _bitline_rc(circuit, tech, geometry, "blb", tech.vss)
    circuit.add(VoltageSource("V_eq_rail", "veq", GND, constant(tech.veq)))
    circuit.add(VoltageSource("V_eq_gate", "eq", GND, step(0.0, tech.vpp, t_eq_on)))
    beta_eq = tech.beta_n(tech.wl_eq)
    circuit.add(NMOS("M2", d="bl_sa", g="eq", s="veq", beta=beta_eq, vt=tech.vtn))
    circuit.add(NMOS("M3", d="blb_sa", g="eq", s="veq", beta=beta_eq, vt=tech.vtn))
    return circuit


def _add_wordline_ladder(
    circuit: Circuit,
    tech: TechnologyParams,
    geometry: BankGeometry,
    t_wl_on: float,
    segments: int = WORDLINE_SEGMENTS,
) -> str:
    """Add the distributed wordline RC ladder; return the far-end node.

    The wordline driver (a stepped voltage source to ``V_pp``) sits at
    one end; the simulated cells hang off the far end, which sees the
    slowest rise — the Table 1 worst case.
    """
    circuit.add(VoltageSource("V_wl_drv", "wl_drv", GND, step(0.0, tech.vpp, t_wl_on)))
    r_seg = tech.rwl_per_col * geometry.cols / segments
    c_seg = tech.cwl_per_col * geometry.cols / segments
    prev = "wl_drv"
    for k in range(segments):
        node = f"wl{k}"
        circuit.add(Resistor(f"R_wl{k}", prev, node, r_seg))
        circuit.add(Capacitor(f"C_wl{k}", node, GND, c_seg, ic=0.0))
        prev = node
    return prev


def build_charge_sharing_circuit(
    tech: TechnologyParams,
    geometry: BankGeometry,
    data_pattern: Optional[Sequence[int]] = None,
    t_wl_on: float = 0.05e-9,
    n_bitlines: Optional[int] = None,
) -> Circuit:
    """Fig. 2b/2c: cells dumping charge onto precharged, coupled bitlines.

    Args:
        tech: technology parameters.
        geometry: bank geometry (sets ``C_bl``/``R_bl`` and wordline RC).
        data_pattern: stored bit per simulated cell (1 = ``V_dd``,
            0 = ``V_ss``); defaults to all ones.  Length fixes the number
            of simulated bitlines.
        t_wl_on: time the wordline driver fires.
        n_bitlines: number of bitlines when ``data_pattern`` is omitted.

    The victim cell is the middle bitline (index ``len(pattern) // 2``);
    its nodes are ``cell<k>`` and ``bl<k>``.
    """
    if data_pattern is None:
        data_pattern = [1] * (n_bitlines or BITLINE_WINDOW)
    pattern = list(data_pattern)
    if not pattern:
        raise ValueError("data_pattern must not be empty")
    if any(bit not in (0, 1) for bit in pattern):
        raise ValueError(f"data_pattern must contain only 0/1, got {pattern}")

    circuit = Circuit(name=f"charge-sharing-{geometry}")
    wl_far = _add_wordline_ladder(circuit, tech, geometry, t_wl_on)
    beta_acc = tech.beta_n(tech.wl_access)

    for k, bit in enumerate(pattern):
        v_cell = tech.vdd if bit else tech.vss
        circuit.add(Capacitor(f"C_cell{k}", f"cell{k}", GND, tech.cs, ic=v_cell))
        _bitline_rc(circuit, tech, geometry, f"bl{k}", tech.veq)
        circuit.add(
            NMOS(f"M_acc{k}", d=f"cell{k}", g=wl_far, s=f"bl{k}", beta=beta_acc, vt=tech.vtn)
        )
        circuit.add(Capacitor(f"C_bw{k}", f"bl{k}", wl_far, tech.cbw))
        if k > 0:
            circuit.add(Capacitor(f"C_bb{k}", f"bl{k - 1}", f"bl{k}", tech.cbb))
    return circuit


def build_sense_amplifier_circuit(
    tech: TechnologyParams,
    geometry: BankGeometry,
    delta_v: float = 0.1,
    t_sa_on: float = 0.05e-9,
) -> Circuit:
    """Fig. 2d: latch-based voltage sense amplifier on a bitline pair.

    The bitlines start at ``V_eq +/- delta_v / 2`` (the post-charge-sharing
    differential) and the latch drives them to the rails once ``SA_EN``
    rises.  Output nodes are ``bl`` (high side) and ``blb``.
    """
    circuit = Circuit(name=f"sense-amp-{geometry}")
    _bitline_rc(circuit, tech, geometry, "bl", tech.veq + delta_v / 2.0)
    _bitline_rc(circuit, tech, geometry, "blb", tech.veq - delta_v / 2.0)
    _add_sense_amplifier(circuit, tech, "bl_sa", "blb_sa", t_sa_on)
    return circuit


def _add_sense_amplifier(
    circuit: Circuit,
    tech: TechnologyParams,
    node_x: str,
    node_y: str,
    t_sa_on: float,
) -> None:
    """Wire the cross-coupled latch of Fig. 2d between two bitline nodes.

    NMOS pair (M9/M10) pulls through the tail device M13 (gated by
    ``SA_EN``); PMOS pair (M6/M8) sources from ``V_dd`` through the
    enable PMOS M11 (gated by the complement of ``SA_EN``).
    """
    beta_n = tech.beta_n(tech.wl_sense_n)
    beta_p = tech.beta_p(tech.wl_sense_p)
    circuit.add(VoltageSource("V_dd_rail", "vdd", GND, constant(tech.vdd)))
    circuit.add(VoltageSource("V_sa_en", "sa_en", GND, step(0.0, tech.vpp, t_sa_on)))
    circuit.add(VoltageSource("V_sa_enb", "sa_enb", GND, step(tech.vdd, -0.4, t_sa_on)))
    # Tail NMOS M13 and enable PMOS M11: sized up so they do not starve
    # the latch.
    circuit.add(NMOS("M13", d="san", g="sa_en", s=GND, beta=4 * beta_n, vt=tech.vtn))
    circuit.add(PMOS("M11", d="sap", g="sa_enb", s="vdd", beta=4 * beta_p, vt=tech.vtp))
    circuit.set_initial("sap", tech.vdd)
    # Cross-coupled inverters.
    circuit.add(NMOS("M9", d=node_x, g=node_y, s="san", beta=beta_n, vt=tech.vtn))
    circuit.add(NMOS("M10", d=node_y, g=node_x, s="san", beta=beta_n, vt=tech.vtn))
    circuit.add(PMOS("M6", d=node_x, g=node_y, s="sap", beta=beta_p, vt=tech.vtp))
    circuit.add(PMOS("M8", d=node_y, g=node_x, s="sap", beta=beta_p, vt=tech.vtp))


def build_refresh_circuit(
    tech: TechnologyParams,
    geometry: BankGeometry,
    phases: RefreshPhases,
    v_cell_initial: Optional[float] = None,
) -> Circuit:
    """The full refresh chain for one cell: equalize, share, sense, restore.

    The cell (node ``cell``) starts at ``v_cell_initial`` (default: the
    partially-leaked voltage one refresh period after full charge) and
    is restored toward ``V_dd`` once the sense amplifier latches.  Used
    to trace Fig. 1a's charge-restoration curve.
    """
    circuit = Circuit(name=f"refresh-{geometry}")
    v_cell = tech.vdd * 0.9 if v_cell_initial is None else v_cell_initial

    # Bitline pair, post-activation state (previous row left bl at Vdd).
    _bitline_rc(circuit, tech, geometry, "bl", tech.vdd)
    _bitline_rc(circuit, tech, geometry, "blb", tech.vss)

    # Equalizer (on at t=0, off at t_eq_off).
    circuit.add(VoltageSource("V_eq_rail", "veq", GND, constant(tech.veq)))
    eq_gate = step(tech.vpp, 0.0, phases.t_eq_off)
    circuit.add(VoltageSource("V_eq_gate", "eq", GND, eq_gate))
    beta_eq = tech.beta_n(tech.wl_eq)
    circuit.add(NMOS("M2", d="bl_sa", g="eq", s="veq", beta=beta_eq, vt=tech.vtn))
    circuit.add(NMOS("M3", d="blb_sa", g="eq", s="veq", beta=beta_eq, vt=tech.vtn))

    # Cell + access transistor, wordline fires at t_wl_on.
    circuit.add(Capacitor("C_cell", "cell", GND, tech.cs, ic=v_cell))
    circuit.add(VoltageSource("V_wl", "wl", GND, step(0.0, tech.vpp, phases.t_wl_on)))
    beta_acc = tech.beta_n(tech.wl_access)
    circuit.add(NMOS("M_acc", d="cell", g="wl", s="bl", beta=beta_acc, vt=tech.vtn))

    # Sense amplifier fires at t_sa_on.
    _add_sense_amplifier(circuit, tech, "bl_sa", "blb_sa", phases.t_sa_on)
    return circuit


# --------------------------------------------------------------------- #
# Simulation helpers                                                     #
# --------------------------------------------------------------------- #


def simulate_equalization(
    tech: TechnologyParams,
    geometry: BankGeometry,
    t_stop: float = 2e-9,
    dt: float = 2e-12,
) -> TransientResult:
    """Run the Fig. 2a equalization transient (Fig. 5 reference)."""
    circuit = build_equalization_circuit(tech, geometry)
    return CircuitSession(circuit).simulate(t_stop, dt, record=["bl", "blb", "eq"])


def simulate_presensing(
    tech: TechnologyParams,
    geometry: BankGeometry,
    data_pattern: Optional[Sequence[int]] = None,
    t_stop: float = 12e-9,
    dt: float = 5e-12,
) -> TransientResult:
    """Run the Fig. 2b/2c charge-sharing transient (Table 1 reference).

    Records the victim (middle) cell and bitline plus the far wordline
    node; callers measure 95%-settle on ``bl<victim>``.
    """
    circuit = build_charge_sharing_circuit(tech, geometry, data_pattern=data_pattern)
    n = len(data_pattern) if data_pattern is not None else BITLINE_WINDOW
    victim = n // 2
    record = [
        f"bl{victim}",
        f"bl{victim}_sa",
        f"cell{victim}",
        f"wl{WORDLINE_SEGMENTS - 1}",
    ]
    return CircuitSession(circuit).simulate(t_stop, dt, record=record)


def simulate_refresh_trajectory(
    tech: TechnologyParams,
    geometry: BankGeometry,
    v_cell_initial: Optional[float] = None,
    t_stop: float = 30e-9,
    dt: float = 5e-12,
    phases: Optional[RefreshPhases] = None,
) -> TransientResult:
    """Run a full refresh and record the cell's charge trajectory (Fig. 1a).

    Default phase schedule: equalize for 1 ns, fire the wordline, then
    enable the sense amplifier 3 ns later (after the bitline differential
    has developed).
    """
    if phases is None:
        phases = DEFAULT_REFRESH_PHASES
    circuit = build_refresh_circuit(tech, geometry, phases, v_cell_initial=v_cell_initial)
    return CircuitSession(circuit).simulate(
        t_stop, dt, record=["cell", "bl", "blb", "bl_sa", "blb_sa"]
    )

