"""Unit tests for repro.circuit.netlist, and the oracle's square law."""

import pytest

from repro.circuit import (
    Capacitor,
    Circuit,
    GND,
    NMOS,
    PMOS,
    Resistor,
    VoltageSource,
)
from tests.oracle_elements import CurrentSource
from tests.reference_assembler import mosfet_ids


class TestElementValidation:
    def test_resistor_rejects_non_positive(self):
        with pytest.raises(ValueError, match="resistance"):
            Resistor("R1", "a", "b", 0.0)

    def test_capacitor_rejects_non_positive(self):
        with pytest.raises(ValueError, match="capacitance"):
            Capacitor("C1", "a", "b", -1e-15)

    def test_mosfet_rejects_non_positive_beta(self):
        with pytest.raises(ValueError, match="beta"):
            NMOS("M1", "d", "g", "s", beta=0.0, vt=0.4)

    def test_mosfet_rejects_negative_vt(self):
        with pytest.raises(ValueError, match="threshold"):
            NMOS("M1", "d", "g", "s", beta=1e-3, vt=-0.1)

    def test_voltage_source_accepts_scalar(self):
        v = VoltageSource("V1", "a", GND, 1.2)
        assert v.waveform(0.0) == 1.2
        assert v.waveform(1e-9) == 1.2

    def test_current_source_accepts_scalar(self):
        i = CurrentSource("I1", "a", GND, 1e-6)
        assert i.waveform(5.0) == 1e-6


class TestCircuitAssembly:
    def test_nodes_registered_in_order(self):
        c = Circuit()
        c.add(Resistor("R1", "a", "b", 1.0))
        c.add(Resistor("R2", "b", "c", 1.0))
        assert c.node_names == ["a", "b", "c"]
        assert c.num_nodes == 3

    def test_ground_not_a_node(self):
        c = Circuit()
        c.add(Resistor("R1", "a", GND, 1.0))
        assert c.node_names == ["a"]
        assert c.node_id(GND) == -1

    def test_duplicate_element_name_rejected(self):
        c = Circuit()
        c.add(Resistor("R1", "a", "b", 1.0))
        with pytest.raises(ValueError, match="duplicate"):
            c.add(Capacitor("R1", "a", GND, 1e-12))

    def test_assemble_counts_branches(self):
        c = Circuit()
        c.add(Resistor("R1", "a", "b", 1.0))
        c.add(VoltageSource("V1", "a", GND, 1.0))
        c.add(VoltageSource("V2", "b", GND, 1.0))
        assert c.assemble() == 2 + 2  # 2 nodes + 2 source branches

    def test_set_initial_unknown_node(self):
        c = Circuit()
        with pytest.raises(KeyError, match="unknown node"):
            c.set_initial("nowhere", 1.0)

    def test_set_initial_ground_nonzero_rejected(self):
        c = Circuit()
        c.add(Resistor("R1", "a", GND, 1.0))
        with pytest.raises(ValueError, match="ground"):
            c.set_initial(GND, 1.0)

    def test_set_initial_ground_zero_is_noop(self):
        c = Circuit()
        c.add(Resistor("R1", "a", GND, 1.0))
        c.set_initial(GND, 0.0)  # allowed


class TestInitialState:
    def test_capacitor_ic_sets_node(self):
        c = Circuit()
        c.add(Capacitor("C1", "a", GND, 1e-12, ic=0.7))
        size = c.assemble()
        x = c.initial_state(size)
        assert x[c.node_id("a")] == pytest.approx(0.7)

    def test_set_initial_applies(self):
        c = Circuit()
        c.add(Resistor("R1", "a", "b", 1.0))
        c.set_initial("b", 0.3)
        size = c.assemble()
        x = c.initial_state(size)
        assert x[c.node_id("b")] == pytest.approx(0.3)
        assert x[c.node_id("a")] == 0.0

    def test_capacitor_ic_relative_to_b_node(self):
        c = Circuit()
        c.add(Resistor("R1", "b", GND, 1.0))
        c.set_initial("b", 0.5)
        c.add(Capacitor("C1", "a", "b", 1e-12, ic=0.2))
        size = c.assemble()
        x = c.initial_state(size)
        assert x[c.node_id("a")] == pytest.approx(0.7)

    def test_capacitor_without_ic_leaves_node(self):
        c = Circuit()
        c.add(Capacitor("C1", "a", GND, 1e-12))
        size = c.assemble()
        x = c.initial_state(size)
        assert x[c.node_id("a")] == 0.0


class TestMOSFETModel:
    def test_nmos_cutoff_current_zero(self):
        m = NMOS("M1", "d", "g", "s", beta=1e-3, vt=0.4)
        i, gm, gds = mosfet_ids(m, vgs=0.3, vds=1.0)
        assert i == 0.0
        assert gm == 0.0

    def test_nmos_saturation_current(self):
        m = NMOS("M1", "d", "g", "s", beta=1e-3, vt=0.4, lam=0.0)
        i, gm, gds = mosfet_ids(m, vgs=1.4, vds=2.0)  # vov=1.0, saturated
        assert i == pytest.approx(0.5 * 1e-3 * 1.0**2)
        assert gm == pytest.approx(1e-3 * 1.0)

    def test_nmos_triode_current(self):
        m = NMOS("M1", "d", "g", "s", beta=1e-3, vt=0.4, lam=0.0)
        i, gm, gds = mosfet_ids(m, vgs=1.4, vds=0.2)
        assert i == pytest.approx(1e-3 * (1.0 * 0.2 - 0.5 * 0.2**2))

    def test_continuity_at_saturation_edge(self):
        m = NMOS("M1", "d", "g", "s", beta=1e-3, vt=0.4, lam=0.01)
        vov = 1.0
        i_below, _, _ = mosfet_ids(m, vgs=1.4, vds=vov - 1e-9)
        i_above, _, _ = mosfet_ids(m, vgs=1.4, vds=vov + 1e-9)
        assert i_below == pytest.approx(i_above, rel=1e-6)

    def test_pmos_polarity(self):
        assert PMOS("M1", "d", "g", "s", beta=1e-3, vt=0.4).polarity == -1
        assert NMOS("M2", "d", "g", "s", beta=1e-3, vt=0.4).polarity == +1
