"""Integration tests for the DRAM circuit netlists (Fig. 2)."""

import numpy as np
import pytest

from repro.circuit import (
    CircuitSession,
    build_charge_sharing_circuit,
    build_sense_amplifier_circuit,
    simulate_equalization,
    simulate_presensing,
    simulate_refresh_trajectory,
)
from repro.technology import BankGeometry, DEFAULT_TECH

TECH = DEFAULT_TECH
SMALL = BankGeometry(2048, 32)


class TestEqualization:
    def test_bitlines_converge_to_veq(self):
        result = simulate_equalization(TECH, SMALL, t_stop=10e-9, dt=10e-12)
        assert result["bl"][-1] == pytest.approx(TECH.veq, abs=5e-3)
        assert result["blb"][-1] == pytest.approx(TECH.veq, abs=5e-3)

    def test_bitlines_start_at_rails(self):
        result = simulate_equalization(TECH, SMALL)
        assert result["bl"][0] == pytest.approx(TECH.vdd)
        assert result["blb"][0] == pytest.approx(TECH.vss)

    def test_monotone_approach(self):
        result = simulate_equalization(TECH, SMALL, t_stop=5e-9, dt=10e-12)
        bl = result["bl"]
        # The high bitline must never undershoot Veq on its way down.
        assert bl.min() >= TECH.veq - 5e-3

    def test_symmetry(self):
        """bl and blb approach Veq symmetrically (same |offset| over time)."""
        result = simulate_equalization(TECH, SMALL, t_stop=4e-9, dt=10e-12)
        hi = result["bl"] - TECH.veq
        lo = TECH.veq - result["blb"]
        # Devices are matched NMOS but source/drain roles differ; allow
        # a modest asymmetry.
        assert float(np.max(np.abs(hi - lo))) < 0.08


class TestChargeSharing:
    def test_equilibrium_above_veq_for_ones(self):
        result = simulate_presensing(TECH, SMALL, t_stop=20e-9, dt=20e-12)
        assert result["bl2"][-1] > TECH.veq + 0.05

    def test_cell_and_bitline_meet(self):
        result = simulate_presensing(TECH, SMALL, t_stop=20e-9, dt=20e-12)
        assert result["cell2"][-1] == pytest.approx(result["bl2"][-1], abs=5e-3)

    def test_zero_cell_pulls_bitline_down(self):
        result = CircuitSession(
            build_charge_sharing_circuit(TECH, SMALL, data_pattern=[0, 0, 0, 0, 0])
        ).simulate(t_stop=15e-9, dt=20e-12, record=["bl2"])
        assert result["bl2"][-1] < TECH.veq - 0.05

    def test_larger_bank_smaller_swing(self):
        small = simulate_presensing(TECH, BankGeometry(2048, 32), t_stop=20e-9, dt=20e-12)
        large = simulate_presensing(TECH, BankGeometry(16384, 32), t_stop=20e-9, dt=20e-12)
        swing_small = small["bl2"][-1] - TECH.veq
        swing_large = large["bl2"][-1] - TECH.veq
        assert swing_large < swing_small

    def test_alternating_pattern_reduces_victim_swing(self):
        ones = CircuitSession(
            build_charge_sharing_circuit(TECH, SMALL, data_pattern=[1, 1, 1, 1, 1])
        ).simulate(t_stop=15e-9, dt=20e-12, record=["bl2"])
        alt = CircuitSession(
            # Victim (middle) stores 1, neighbours store 0.
            build_charge_sharing_circuit(TECH, SMALL, data_pattern=[1, 0, 1, 0, 1])
        ).simulate(t_stop=15e-9, dt=20e-12, record=["bl2"])
        swing_ones = ones["bl2"][-1] - TECH.veq
        swing_alt = alt["bl2"][-1] - TECH.veq
        assert 0 < swing_alt < swing_ones

    def test_rejects_bad_pattern(self):
        with pytest.raises(ValueError, match="0/1"):
            build_charge_sharing_circuit(TECH, SMALL, data_pattern=[0, 2])
        with pytest.raises(ValueError, match="empty"):
            build_charge_sharing_circuit(TECH, SMALL, data_pattern=[])


class TestSenseAmplifier:
    @pytest.mark.parametrize("delta_v,hi,lo", [(0.1, "bl", "blb"), (-0.1, "blb", "bl")])
    def test_latches_correct_direction(self, delta_v, hi, lo):
        circuit = build_sense_amplifier_circuit(TECH, SMALL, delta_v=delta_v)
        result = CircuitSession(circuit).simulate(t_stop=30e-9, dt=20e-12, record=["bl", "blb"])
        assert result[hi][-1] > 0.9 * TECH.vdd
        assert result[lo][-1] < 0.1 * TECH.vdd

    def test_small_differential_still_resolves(self):
        circuit = build_sense_amplifier_circuit(TECH, SMALL, delta_v=0.02)
        result = CircuitSession(circuit).simulate(t_stop=40e-9, dt=20e-12, record=["bl", "blb"])
        assert result["bl"][-1] > result["blb"][-1] + 1.0


class TestRefreshTrajectory:
    def test_restores_weak_one_to_full(self):
        result = simulate_refresh_trajectory(
            TECH, SMALL, v_cell_initial=TECH.v_fail, t_stop=40e-9
        )
        assert result["cell"][-1] > 0.95 * TECH.vdd

    def test_zero_cell_stays_zero(self):
        result = simulate_refresh_trajectory(TECH, SMALL, v_cell_initial=0.1, t_stop=40e-9)
        assert result["cell"][-1] < 0.1

    def test_charge_dips_then_recovers(self):
        result = simulate_refresh_trajectory(
            TECH, SMALL, v_cell_initial=TECH.v_fail, t_stop=40e-9
        )
        cell = result["cell"]
        assert cell.min() < TECH.v_fail  # charge sharing dips the cell
        assert cell[-1] > TECH.v_fail
