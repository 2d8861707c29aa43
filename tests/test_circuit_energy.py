"""Tests for branch-current recording and circuit-level energy measurement."""

import numpy as np
import pytest

from repro.circuit import (
    Capacitor,
    Circuit,
    CircuitSession,
    GND,
    Resistor,
    VoltageSource,
    delivered_energy,
)
from repro.circuit.dram_circuits import RefreshPhases, build_refresh_circuit
from repro.technology import DEFAULT_GEOMETRY, DEFAULT_TECH

TECH = DEFAULT_TECH


def _rc_charge_circuit(r=1e3, c=1e-12, v=1.0):
    circuit = Circuit()
    source = VoltageSource("V1", "in", GND, v)
    circuit.add(source)
    circuit.add(Resistor("R1", "in", "out", r))
    circuit.add(Capacitor("C1", "out", GND, c, ic=0.0))
    return circuit, source


class TestBranchCurrents:
    def test_recorded_current_matches_ohms_law(self):
        circuit, _ = _rc_charge_circuit()
        result = CircuitSession(circuit).simulate(
            t_stop=5e-9, dt=5e-12, record=["out"], record_currents=["V1"]
        )
        i = result.current("V1")
        v_out = result["out"]
        expected = (1.0 - v_out) / 1e3
        assert np.allclose(i[1:], expected[1:], atol=1e-6)

    def test_unknown_source_rejected(self):
        circuit, _ = _rc_charge_circuit()
        with pytest.raises(KeyError, match="no voltage source"):
            CircuitSession(circuit).simulate(
                t_stop=1e-12, dt=1e-13, record_currents=["nope"]
            )

    def test_current_not_recorded_raises(self):
        circuit, _ = _rc_charge_circuit()
        result = CircuitSession(circuit).simulate(t_stop=1e-12, dt=1e-13)
        with pytest.raises(KeyError, match="no recorded current") as raised:
            result.current("V1")
        assert "CircuitSession.simulate" in str(raised.value)


class TestDeliveredEnergy:
    def test_rc_charge_energy(self):
        """Charging C to V through R draws C*V^2 total from the source
        (half stored, half dissipated)."""
        r, c, v = 1e3, 1e-12, 1.0
        circuit, source = _rc_charge_circuit(r, c, v)
        result = CircuitSession(circuit).simulate(
            t_stop=20 * r * c, dt=r * c / 200, record=["out"], record_currents=["V1"]
        )
        energy = delivered_energy(result, source)
        assert energy == pytest.approx(c * v * v, rel=0.03)

    def test_idle_source_delivers_nothing(self):
        circuit = Circuit()
        source = VoltageSource("V1", "a", GND, 1.0)
        circuit.add(source)
        circuit.add(Capacitor("C1", "a", GND, 1e-12, ic=1.0))  # already charged
        result = CircuitSession(circuit).simulate(
            t_stop=1e-9, dt=1e-11, record_currents=["V1"]
        )
        assert abs(delivered_energy(result, source)) < 1e-18


class TestRefreshEnergyCrossValidation:
    def test_array_energy_is_duration_independent(self):
        """The power model assumes bitline/cell charging energy does not
        depend on how long the restore window stays open (partial vs
        full): the Vdd rail's delivered energy in the circuit confirms
        it — ~99% is drawn by the partial-refresh cutoff already."""
        tck = TECH.tck_ctrl
        phases = RefreshPhases(t_eq_off=1 * tck, t_wl_on=3 * tck, t_sa_on=5 * tck)
        circuit = build_refresh_circuit(
            TECH, DEFAULT_GEOMETRY, phases, v_cell_initial=TECH.v_fail
        )
        source = next(e for e in circuit.elements if e.name == "V_dd_rail")
        result = CircuitSession(circuit).simulate(
            t_stop=19 * tck, dt=20e-12, record=["cell"], record_currents=["V_dd_rail"]
        )
        e_full = delivered_energy(result, source)
        cutoff = result.time <= 11 * tck
        i = result.current("V_dd_rail")[cutoff]
        e_partial = float(
            np.trapezoid(np.full(i.shape, TECH.vdd) * i, result.time[cutoff])
        )
        assert e_full > 0
        assert e_partial / e_full > 0.95

    def test_array_energy_magnitude_matches_power_model(self):
        """Per-bitline circuit energy within ~2x of the model's
        bitline+cell terms (same physics, different initial states)."""
        from repro.power import RefreshPowerModel
        from repro.model import RefreshLatencyModel

        tck = TECH.tck_ctrl
        phases = RefreshPhases(t_eq_off=1 * tck, t_wl_on=3 * tck, t_sa_on=5 * tck)
        circuit = build_refresh_circuit(
            TECH, DEFAULT_GEOMETRY, phases, v_cell_initial=TECH.v_fail
        )
        source = next(e for e in circuit.elements if e.name == "V_dd_rail")
        result = CircuitSession(circuit).simulate(
            t_stop=19 * tck, dt=20e-12, record=["cell"], record_currents=["V_dd_rail"]
        )
        e_circuit = delivered_energy(result, source)

        model = RefreshLatencyModel(TECH)
        power = RefreshPowerModel(TECH)
        breakdown = power.refresh_energy(model.full_refresh())
        per_bitline_model = (
            breakdown.bitline_energy + breakdown.cell_energy
        ) / DEFAULT_GEOMETRY.cols
        assert 0.3 < e_circuit / per_bitline_model < 3.0
