"""Differential harness for the batched multi-lane circuit solver.

Architecture invariant 14: every lane of a fixed-step
:class:`~repro.circuit.BatchedCircuitSession` transient matches a
scalar :class:`~repro.circuit.CircuitSession` run of the same circuit
and overrides — bit-identical on the device path (each lane is solved
by the scalar path's own ``dgesv``), and to machine precision on the
shared-factorization (device-free) path.  Adaptive batches share one
step controller across lanes, so their lanes stay within the documented
2 mV circuit envelope of solo adaptive runs.  The per-lane failure
machinery is covered too: a lane the batch cannot converge retries
through the scalar subdivision/rescue path without perturbing its
neighbors (``test_circuit_rescue.py`` drives one through the ladder).
"""

import numpy as np
import pytest

from repro.circuit import (
    BatchedCircuitSession,
    Capacitor,
    Circuit,
    CircuitSession,
    GND,
    NMOS,
    Resistor,
    VoltageSource,
    constant,
    step,
)
from repro.circuit.dram_circuits import RefreshPhases, build_refresh_circuit
from repro.circuit.solver import DT_MAX_FACTOR, DT_MIN_DIVISOR
from repro.model.trfc import RefreshLatencyModel
from repro.technology import DEFAULT_GEOMETRY, DEFAULT_TECH

#: The documented circuit agreement envelope (volts).
TOLERANCE_V = 2e-3


def _refresh_setup():
    """The Fig. 2d refresh chain and its partial-refresh horizon."""
    tech, geom = DEFAULT_TECH, DEFAULT_GEOMETRY
    timing = RefreshLatencyModel(tech, geom).partial_refresh(0.95)
    tck = tech.tck_ctrl
    t_wl_on = (timing.tau_eq + timing.tau_fixed // 2) * tck
    phases = RefreshPhases(
        t_eq_off=timing.tau_eq * tck,
        t_wl_on=t_wl_on,
        t_sa_on=t_wl_on + timing.tau_pre * tck,
    )
    return build_refresh_circuit(tech, geom, phases), timing.total_seconds, tech.vdd


def _rc_ladder(n_stages, with_device=False):
    """A driven RC ladder of ``n_stages`` RC sections."""
    circuit = Circuit(name=f"ladder-{n_stages}")
    circuit.add(VoltageSource("V1", "n0", GND, step(0.0, 1.2, 2e-10)))
    for i in range(n_stages):
        circuit.add(Resistor(f"R{i}", f"n{i}", f"n{i + 1}", 1e3))
        circuit.add(Capacitor(f"C{i}", f"n{i + 1}", GND, 5e-14))
    if with_device:
        circuit.add(VoltageSource("Vg", "gate", GND, constant(1.0)))
        circuit.add(NMOS("M1", f"n{n_stages}", "gate", GND, beta=2e-4, vt=0.4))
    return circuit


# --------------------------------------------------------------------- #
# Differential: batched vs per-lane scalar                               #
# --------------------------------------------------------------------- #


class TestBatchedMatchesScalar:
    def test_refresh_netlist_fixed_step(self):
        circuit, t_stop, vdd = _refresh_setup()
        starts = np.linspace(0.70, 0.98, 8)
        batched = BatchedCircuitSession(circuit).simulate_batch(
            t_stop, 10e-12, record=["cell", "bl"],
            lane_overrides={"cell": starts * vdd},
        )
        assert batched.n_lanes == 8
        assert batched["cell"].shape == batched["bl"].shape
        assert batched.time[0] == 0.0 and batched["cell"].shape[1] == len(batched.time)
        for lane, start in enumerate(starts):
            scalar = CircuitSession(circuit).simulate(
                t_stop, 10e-12, record=["cell", "bl"],
                initial_overrides={"cell": float(start) * vdd},
            )
            for node in ("cell", "bl"):
                np.testing.assert_array_equal(batched[node][lane], scalar[node])

    def test_refresh_netlist_adaptive(self):
        # One controller steps every lane (sized by the worst lane's
        # truncation error), so a lane's step sequence differs from a
        # solo adaptive run's: the 2 mV envelope applies.
        circuit, t_stop, vdd = _refresh_setup()
        starts = np.linspace(0.72, 0.96, 6)
        batched = BatchedCircuitSession(circuit).simulate_batch(
            t_stop, 10e-12, record=["cell"], adaptive=True,
            lane_overrides={"cell": starts * vdd},
        )
        scalar_session = CircuitSession(circuit)
        for lane, start in enumerate(starts):
            scalar = scalar_session.simulate(
                t_stop, 10e-12, record=["cell"], adaptive=True,
                initial_overrides={"cell": float(start) * vdd},
            )
            gap = np.abs(batched["cell"][lane] - np.asarray(scalar["cell"])).max()
            assert gap <= TOLERANCE_V, f"lane {lane}: {gap}"

    @pytest.mark.parametrize("start", [0.72, 0.90])
    def test_one_lane_adaptive_batch_is_the_scalar_run(self, start):
        """With one lane the shared controller is the scalar controller:
        same step sequence, same waveforms bit for bit, same stats."""
        circuit, t_stop, vdd = _refresh_setup()
        batched = BatchedCircuitSession(circuit).simulate_batch(
            t_stop, 10e-12, record=["cell", "bl"], adaptive=True,
            lane_overrides={"cell": np.array([start * vdd])},
        )
        scalar = CircuitSession(circuit).simulate(
            t_stop, 10e-12, record=["cell", "bl"], adaptive=True,
            initial_overrides={"cell": start * vdd},
        )
        for node in ("cell", "bl"):
            np.testing.assert_array_equal(batched[node][0], scalar[node])
        assert batched.stats.summary() == scalar.stats.summary()
        assert batched.stats.rejected_steps > 0  # the LTE test was exercised

    def test_shared_controller_caps_steps_at_dt_max_factor(self, monkeypatch):
        steps = []
        real = BatchedCircuitSession._newton_batch

        def spy(self, assembler, XP, t, dt, stats):
            steps.append(dt)
            return real(self, assembler, XP, t, dt, stats)

        monkeypatch.setattr(BatchedCircuitSession, "_newton_batch", spy)
        dt = 1e-12
        BatchedCircuitSession(_rc_ladder(3)).simulate_batch(
            4e-9, dt, adaptive=True, lane_overrides={"n3": np.array([0.0, 0.5])}
        )
        assert max(steps) == DT_MAX_FACTOR * dt
        assert min(steps) >= dt / DT_MIN_DIVISOR

    def test_device_free_ladder_shares_one_factorization(self):
        # No devices: every lane shares one factorization and a
        # multi-RHS solve.  LAPACK's blocked multi-RHS back-substitution
        # may round the last ulp differently from the scalar's
        # column-at-a-time solve, so assert agreement to ~machine eps
        # rather than bitwise.
        circuit = _rc_ladder(12)
        ics = np.array([0.0, 0.3, 0.9])
        batched = BatchedCircuitSession(circuit).simulate_batch(
            2e-9, 1e-11, record=["n12"], lane_overrides={"n12": ics}
        )
        for lane, ic in enumerate(ics):
            scalar = CircuitSession(circuit).simulate(
                2e-9, 1e-11, record=["n12"],
                initial_overrides={"n12": float(ic)},
            )
            gap = np.abs(batched["n12"][lane] - np.asarray(scalar["n12"])).max()
            assert gap <= 1e-12, f"lane {lane}: {gap}"

    def test_large_ladder_with_device_is_bit_identical(self):
        # Hundreds of unknowns and a MOSFET: each lane's padded system
        # is still solved by its own dgesv, as the scalar round's is.
        circuit = _rc_ladder(210, with_device=True)
        session = BatchedCircuitSession(circuit)
        assert session.assembler.n_devices == 1
        ics = np.array([0.0, 0.5, 1.0])
        node = "n210"
        batched = session.simulate_batch(
            1e-9, 2e-11, record=[node], lane_overrides={node: ics}
        )
        for lane, ic in enumerate(ics):
            scalar = CircuitSession(circuit).simulate(
                1e-9, 2e-11, record=[node], initial_overrides={node: float(ic)}
            )
            np.testing.assert_array_equal(batched[node][lane], scalar[node])

    def test_lane_result_view_and_final(self):
        circuit = _rc_ladder(4)
        batched = BatchedCircuitSession(circuit).simulate_batch(
            1e-9, 1e-11, record=["n4"], lane_overrides={"n4": np.array([0.1, 0.7])}
        )
        lane = batched.lane(1)
        np.testing.assert_array_equal(lane["n4"], batched["n4"][1])
        np.testing.assert_array_equal(lane.time, batched.time)
        np.testing.assert_array_equal(batched.final("n4"), batched["n4"][:, -1])
        assert batched.nodes == ["n4"] and "n4" in batched


# --------------------------------------------------------------------- #
# Per-lane failure isolation                                             #
# --------------------------------------------------------------------- #


class TestPerLaneFallback:
    def test_failed_lane_retries_scalar_without_perturbing_neighbors(
        self, monkeypatch
    ):
        circuit, t_stop, vdd = _refresh_setup()
        starts = np.array([0.75, 0.85, 0.95]) * vdd
        reference = BatchedCircuitSession(circuit).simulate_batch(
            t_stop, 10e-12, record=["cell"], lane_overrides={"cell": starts}
        )

        real = BatchedCircuitSession._newton_batch

        def sabotaged(self, assembler, XP, t, dt, stats):
            XP_new, converged = real(self, assembler, XP, t, dt, stats)
            if XP.shape[0] == 3:  # full batch: pretend lane 1 stalled
                converged = converged.copy()
                converged[1] = False
            return XP_new, converged

        monkeypatch.setattr(BatchedCircuitSession, "_newton_batch", sabotaged)
        sabotaged_run = BatchedCircuitSession(circuit).simulate_batch(
            t_stop, 10e-12, record=["cell"], lane_overrides={"cell": starts}
        )
        # Lane 1 went through the scalar per-lane path every step; its
        # waveform must match a solo scalar session bit-for-bit.
        scalar = CircuitSession(circuit).simulate(
            t_stop, 10e-12, record=["cell"],
            initial_overrides={"cell": float(starts[1])},
        )
        np.testing.assert_array_equal(
            sabotaged_run["cell"][1], np.asarray(scalar["cell"])
        )
        # The healthy neighbors kept their batched solutions untouched.
        np.testing.assert_array_equal(sabotaged_run["cell"][0], reference["cell"][0])
        np.testing.assert_array_equal(sabotaged_run["cell"][2], reference["cell"][2])

    def test_every_lane_failing_halves_the_shared_step(self, monkeypatch):
        """When the whole batch fails a step, the shared controller halves
        it and retries, as the scalar controller does, instead of sending
        every lane to scalar rescue."""
        real = BatchedCircuitSession._newton_batch
        calls = []

        def fail_first(self, assembler, XP, t, dt, stats):
            XP_new, converged = real(self, assembler, XP, t, dt, stats)
            calls.append(dt)
            if len(calls) == 1:
                converged = np.zeros_like(converged)
            return XP_new, converged

        monkeypatch.setattr(BatchedCircuitSession, "_newton_batch", fail_first)
        dt = 1e-11
        result = BatchedCircuitSession(_rc_ladder(3)).simulate_batch(
            1e-9, dt, adaptive=True, lane_overrides={"n3": np.array([0.0, 0.5])}
        )
        assert calls[1] == calls[0] / 2.0
        assert result.stats.subdivisions == 1 and result.stats.rescues == 0
        assert np.isfinite(result["n3"]).all()


# --------------------------------------------------------------------- #
# Input validation                                                       #
# --------------------------------------------------------------------- #


class TestValidation:
    def test_rejects_bad_horizon_and_step(self):
        session = BatchedCircuitSession(_rc_ladder(2))
        with pytest.raises(ValueError, match="must be positive"):
            session.simulate_batch(
                0.0, 1e-11, lane_overrides={"n2": np.array([0.0])}
            )
        with pytest.raises(ValueError, match="must be positive"):
            session.simulate_batch(
                1e-9, -1e-11, lane_overrides={"n2": np.array([0.0])}
            )

    def test_rejects_empty_and_mismatched_lanes(self):
        session = BatchedCircuitSession(_rc_ladder(2))
        with pytest.raises(ValueError, match="at least one node"):
            session.simulate_batch(1e-9, 1e-11, lane_overrides={})
        with pytest.raises(ValueError, match="no lanes"):
            session.simulate_batch(
                1e-9, 1e-11, lane_overrides={"n2": np.array([])}
            )
        with pytest.raises(ValueError, match="disagree on lane count"):
            session.simulate_batch(
                1e-9, 1e-11,
                lane_overrides={"n1": np.zeros(2), "n2": np.zeros(3)},
            )

    def test_rejects_ground_override_and_ground_record(self):
        session = BatchedCircuitSession(_rc_ladder(2))
        with pytest.raises(KeyError, match="ground"):
            session.simulate_batch(
                1e-9, 1e-11, lane_overrides={GND: np.array([0.1])}
            )
        with pytest.raises(KeyError, match="ground"):
            session.simulate_batch(
                1e-9, 1e-11, record=[GND],
                lane_overrides={"n2": np.array([0.1])},
            )
