"""Edge-case and failure-injection tests across the stack."""

import numpy as np
import pytest

from repro.circuit import (
    Capacitor,
    Circuit,
    CircuitSession,
    GND,
    NMOS,
    VoltageSource,
)
from repro.circuit.solver import ConvergenceError, MAX_SUBDIVISIONS
from repro.controller import build_policy
from repro.retention import RefreshBinning, RetentionProfiler
from repro.sim import BankSimulator, DRAMTiming, MemoryTrace, RefreshOverheadEvaluator
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.units import MS

TECH = DEFAULT_TECH
TIMING = DRAMTiming.from_technology(TECH)


class TestSolverFailureModes:
    def test_step_subdivision_recovers_stiff_event(self):
        """A coarse dt over a sharp switching event converges via
        automatic halving instead of raising."""
        circuit = Circuit()
        circuit.add(Capacitor("C1", "a", GND, 1e-13, ic=1.2))
        circuit.add(NMOS("M1", d="a", g="gate", s=GND, beta=5e-2, vt=0.4))
        from repro.circuit import step

        circuit.add(VoltageSource("Vg", "gate", GND, step(0.0, 1.6, 5e-9, t_rise=1e-12)))
        # dt far coarser than the gate rise time.
        result = CircuitSession(circuit).simulate(t_stop=10e-9, dt=1e-9)
        assert result["a"][-1] == pytest.approx(0.0, abs=0.01)

    def test_isolated_node_regularized(self):
        """A node touched only by a capacitor to ground must not make
        the system singular."""
        circuit = Circuit()
        circuit.add(Capacitor("C1", "float", GND, 1e-12, ic=0.7))
        result = CircuitSession(circuit).simulate(t_stop=1e-10, dt=1e-11)
        assert result["float"][-1] == pytest.approx(0.7, abs=1e-6)

    def test_subdivision_limit_is_finite(self):
        assert 1 <= MAX_SUBDIVISIONS <= 16

    def test_two_sources_conflicting_is_singular(self):
        """Two ideal sources forcing different voltages on one node."""
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "a", GND, 1.0))
        circuit.add(VoltageSource("V2", "a", GND, 2.0))
        with pytest.raises(ConvergenceError, match="singular|subdivisions"):
            CircuitSession(circuit).simulate(t_stop=1e-11, dt=1e-12)


class TestEngineEdgeCases:
    @pytest.fixture(scope="class")
    def stack(self):
        geometry = BankGeometry(32, 4)
        profile = RetentionProfiler(seed=4).profile(geometry)
        binning = RefreshBinning().assign(profile)
        return geometry, profile, binning

    def test_zero_duration_rejected(self, stack):
        geometry, profile, binning = stack
        policy = build_policy("raidr", TECH, profile, binning)
        with pytest.raises(ValueError, match="positive"):
            BankSimulator(policy, TIMING, geometry).run(duration_cycles=0)

    def test_requests_beyond_horizon_ignored(self, stack):
        geometry, profile, binning = stack
        policy = build_policy("raidr", TECH, profile, binning)
        duration = TIMING.cycles(4 * MS)
        trace = MemoryTrace(
            cycles=np.array([10, duration + 100], dtype=np.int64),
            rows=np.array([0, 1], dtype=np.int64),
            is_write=np.zeros(2, dtype=bool),
        )
        result = BankSimulator(policy, TIMING, geometry).run(
            trace=trace, duration_cycles=duration
        )
        assert result.requests.n_requests == 1

    def test_duration_defaults_to_trace_end(self, stack):
        geometry, profile, binning = stack
        policy = build_policy("raidr", TECH, profile, binning)
        trace = MemoryTrace(
            cycles=np.array([5, 500], dtype=np.int64),
            rows=np.array([0, 1], dtype=np.int64),
            is_write=np.zeros(2, dtype=bool),
        )
        result = BankSimulator(policy, TIMING, geometry).run(trace=trace)
        assert result.refresh.duration_cycles == 501
        assert result.requests.n_requests == 2

    def test_empty_trace_with_duration(self, stack):
        geometry, profile, binning = stack
        policy = build_policy("fixed", TECH, profile, binning)
        empty = MemoryTrace(
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([], dtype=bool),
        )
        duration = TIMING.cycles(64 * MS)
        result = BankSimulator(policy, TIMING, geometry).run(
            trace=empty, duration_cycles=duration
        )
        assert result.requests.n_requests == 0
        assert result.refresh.total_refreshes == geometry.rows

    def test_single_row_bank(self):
        geometry = BankGeometry(1, 1)
        profile = RetentionProfiler(seed=9).profile(geometry)
        binning = RefreshBinning().assign(profile)
        policy = build_policy("vrl", TECH, profile, binning)
        duration = TIMING.cycles(1024 * MS)
        engine = BankSimulator(policy, TIMING, geometry).run(duration_cycles=duration)
        policy.reset()
        fast = RefreshOverheadEvaluator(policy, TIMING).evaluate(duration)
        assert engine.refresh.total_refreshes == fast.total_refreshes > 0


class TestQuantizationBoundaries:
    def test_trefi_exact_division(self):
        """64 ms / 8192 at the controller clock: one refresh command
        per interval covers the paper bank exactly."""
        from repro.sim.timing import TREFI_SECONDS

        assert TREFI_SECONDS * 8192 == pytest.approx(64 * MS)

    def test_row_period_cycles_cover_period(self):
        for period in (64 * MS, 128 * MS, 192 * MS, 256 * MS):
            cycles = TIMING.cycles(period)
            assert cycles * TIMING.tck >= period * (1 - 1e-9)

    def test_refresh_never_free(self):
        """Every policy's command costs at least one cycle."""
        geometry = BankGeometry(16, 2)
        profile = RetentionProfiler(seed=2).profile(geometry)
        binning = RefreshBinning().assign(profile)
        for name in ("fixed", "raidr", "vrl", "vrl-access"):
            policy = build_policy(name, TECH, profile, binning)
            for row in range(geometry.rows):
                assert policy.refresh_row(row).latency_cycles >= 1
