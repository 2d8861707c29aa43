"""Unit tests for the transient solver against closed-form circuits."""

import math

import pytest

from repro.circuit import (
    Capacitor,
    Circuit,
    CircuitSession,
    GND,
    NMOS,
    Resistor,
    VoltageSource,
    step,
)
from tests.oracle_elements import CurrentSource
from tests.reference_assembler import reference_session


def _rc_discharge(r=1e3, c=1e-12, v0=1.0):
    circuit = Circuit(name="rc")
    circuit.add(Capacitor("C1", "a", GND, c, ic=v0))
    circuit.add(Resistor("R1", "a", GND, r))
    return circuit


class TestLinearCircuits:
    def test_rc_discharge_matches_analytic(self):
        r, c, v0 = 1e3, 1e-12, 1.0
        tau = r * c
        result = CircuitSession(_rc_discharge(r, c, v0)).simulate(t_stop=5 * tau, dt=tau / 200)
        for t in [0.5 * tau, tau, 2 * tau, 4 * tau]:
            expected = v0 * math.exp(-t / tau)
            assert result.at("a", t) == pytest.approx(expected, rel=0.02)

    def test_rc_charge_through_source(self):
        r, c = 1e3, 1e-12
        tau = r * c
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", GND, 1.0))
        circuit.add(Resistor("R1", "in", "out", r))
        circuit.add(Capacitor("C1", "out", GND, c, ic=0.0))
        result = CircuitSession(circuit).simulate(t_stop=5 * tau, dt=tau / 200)
        assert result.at("out", tau) == pytest.approx(1 - math.exp(-1), rel=0.02)
        assert result["out"][-1] == pytest.approx(1.0, abs=0.01)

    def test_resistive_divider(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", GND, 2.0))
        circuit.add(Resistor("R1", "in", "mid", 1e3))
        circuit.add(Resistor("R2", "mid", GND, 1e3))
        result = CircuitSession(circuit).simulate(t_stop=1e-9, dt=1e-11)
        assert result["mid"][-1] == pytest.approx(1.0, rel=1e-6)

    def test_current_source_into_rc(self):
        # 1 uA into 1 kOhm -> 1 mV steady state.
        circuit = Circuit()
        circuit.add(CurrentSource("I1", GND, "a", 1e-6))
        circuit.add(Resistor("R1", "a", GND, 1e3))
        circuit.add(Capacitor("C1", "a", GND, 1e-15, ic=0.0))
        result = reference_session(circuit).simulate(t_stop=20e-12, dt=1e-13)
        assert result["a"][-1] == pytest.approx(1e-3, rel=0.01)

    def test_charge_sharing_two_capacitors(self):
        """Two caps through a resistor: final voltage = charge-weighted mean."""
        circuit = Circuit()
        circuit.add(Capacitor("C1", "a", GND, 3e-12, ic=1.0))
        circuit.add(Capacitor("C2", "b", GND, 1e-12, ic=0.0))
        circuit.add(Resistor("R1", "a", "b", 1e3))
        result = CircuitSession(circuit).simulate(t_stop=50e-9, dt=20e-12)
        expected = (3e-12 * 1.0 + 1e-12 * 0.0) / 4e-12
        assert result["a"][-1] == pytest.approx(expected, rel=0.01)
        assert result["b"][-1] == pytest.approx(expected, rel=0.01)


class TestTimebase:
    def test_records_initial_condition(self):
        result = CircuitSession(_rc_discharge(v0=0.8)).simulate(t_stop=1e-9, dt=1e-11)
        assert result.time[0] == 0.0
        assert result["a"][0] == pytest.approx(0.8)

    def test_sample_count(self):
        result = CircuitSession(_rc_discharge()).simulate(t_stop=1e-9, dt=1e-11)
        assert len(result.time) == 101
        assert len(result["a"]) == 101

    def test_record_subset(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "b", 1.0))
        circuit.add(VoltageSource("V1", "a", GND, 1.0))
        result = CircuitSession(circuit).simulate(t_stop=1e-12, dt=1e-13, record=["b"])
        assert "b" in result
        assert "a" not in result

    def test_record_ground_rejected(self):
        with pytest.raises(KeyError, match="ground"):
            CircuitSession(_rc_discharge()).simulate(t_stop=1e-12, dt=1e-13, record=[GND])

    def test_rejects_bad_timebase(self):
        session = CircuitSession(_rc_discharge())
        with pytest.raises(ValueError):
            session.simulate(t_stop=0.0, dt=1e-12)
        with pytest.raises(ValueError):
            session.simulate(t_stop=1e-9, dt=-1e-12)


class TestNonlinear:
    def test_nmos_source_follower_steady_state(self):
        """Follower output settles near Vg - Vt (square-law, light load)."""
        circuit = Circuit()
        circuit.add(VoltageSource("Vd", "vdd", GND, 2.0))
        circuit.add(VoltageSource("Vg", "g", GND, 1.5))
        circuit.add(NMOS("M1", d="vdd", g="g", s="out", beta=5e-3, vt=0.4))
        circuit.add(Resistor("Rl", "out", GND, 1e6))
        circuit.add(Capacitor("Cl", "out", GND, 1e-14, ic=0.0))
        result = CircuitSession(circuit).simulate(t_stop=50e-9, dt=50e-12)
        out = result["out"][-1]
        assert 0.95 < out < 1.1  # just below Vg - Vt = 1.1

    def test_nmos_switch_discharges_node(self):
        circuit = Circuit()
        circuit.add(Capacitor("C1", "a", GND, 1e-13, ic=1.0))
        circuit.add(NMOS("M1", d="a", g="gate", s=GND, beta=1e-3, vt=0.4))
        circuit.add(VoltageSource("Vg", "gate", GND, step(0.0, 1.6, 1e-10)))
        result = CircuitSession(circuit).simulate(t_stop=5e-9, dt=5e-12)
        assert result.at("a", 5e-11) == pytest.approx(1.0, abs=1e-3)  # before gate
        assert result["a"][-1] == pytest.approx(0.0, abs=0.01)  # after

    def test_cutoff_transistor_isolates(self):
        circuit = Circuit()
        circuit.add(Capacitor("C1", "a", GND, 1e-13, ic=1.0))
        circuit.add(NMOS("M1", d="a", g=GND, s=GND, beta=1e-3, vt=0.4))
        result = CircuitSession(circuit).simulate(t_stop=1e-9, dt=1e-11)
        assert result["a"][-1] == pytest.approx(1.0, abs=1e-3)

    def test_newton_iteration_count_reported(self):
        result = CircuitSession(_rc_discharge()).simulate(t_stop=1e-10, dt=1e-12)
        assert result.newton_iterations >= 100  # at least one per step


class TestResultAccessors:
    def test_at_interpolates(self):
        result = CircuitSession(_rc_discharge(r=1e3, c=1e-12, v0=1.0)).simulate(
            t_stop=1e-9, dt=1e-10
        )
        mid = result.at("a", 0.15e-9)
        assert result.at("a", 0.1e-9) > mid > result.at("a", 0.2e-9)

    def test_contains(self):
        result = CircuitSession(_rc_discharge()).simulate(t_stop=1e-12, dt=1e-13)
        assert "a" in result
        assert "zz" not in result

    def test_nodes_property(self):
        result = CircuitSession(_rc_discharge()).simulate(t_stop=1e-12, dt=1e-13)
        assert result.nodes == ["a"]
