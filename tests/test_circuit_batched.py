"""Differential harness for the batched multi-lane circuit solver.

Architecture invariant 14, at the Newton-round level: for given lane
states, each lane of one ``_newton_batch`` round equals the scalar
``_newton`` on that lane — bit-identical on the device path (each lane
is solved by the scalar path's own ``dgesv``), and to machine precision
on the shared-factorization (device-free) path.  Batches and one-lane
``simulate(adaptive=True)`` runs share one step controller: a one-lane
run equals the scalar controller kept as the oracle in
``tests/reference_adaptive.py`` bit for bit, stats included, and the
lanes of a wider batch stay within the documented 2 mV circuit envelope
of their solo runs.  The per-lane failure machinery is covered too: a
lane the batch cannot converge retries through the scalar
subdivision/rescue path without perturbing its neighbors
(``test_circuit_rescue.py`` drives one through the ladder).
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
from repro.circuit.solver import DT_MAX_FACTOR, DT_MIN_DIVISOR, SolverStats
from repro.model.trfc import RefreshLatencyModel
from repro.technology import DEFAULT_GEOMETRY, DEFAULT_TECH
from tests.reference_adaptive import assert_same_run, reference_adaptive
from tests.test_circuit_compiled import NETLISTS

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
# Differential: batched vs per-lane scalar, round and controller         #
# --------------------------------------------------------------------- #


def _lane_states(circuit, lane_overrides):
    """Padded ``(L, size + 1)`` initial lane states, as ``simulate_batch``
    builds them."""
    size = circuit.assemble()
    n_lanes = len(next(iter(lane_overrides.values())))
    XP = np.zeros((n_lanes, size + 1))
    XP[:, :size] = circuit.initial_state(size)
    for node, values in lane_overrides.items():
        XP[:, circuit.node_id(node)] = values
    return XP


def _assert_rounds_match_newton(circuit, lane_overrides, t_stop, dt, atol=0.0):
    """Chain ``_newton_batch`` rounds over ``[0, t_stop]`` at a fixed ``dt``;
    every round, each lane equals ``_newton`` from that lane's state on a
    scalar session of its own (``atol == 0``: bit for bit)."""
    batch = BatchedCircuitSession(circuit)
    scalar = CircuitSession(circuit)
    batch_stats, scalar_stats = SolverStats(), SolverStats()
    XP = _lane_states(circuit, lane_overrides)
    n_rounds = int(round(t_stop / dt))
    for k in range(1, n_rounds + 1):
        XP_new, converged = batch._newton_batch(batch.assembler, XP, k * dt, dt, batch_stats)
        assert converged.all(), f"round {k}"
        alone = np.stack(
            [scalar._newton(scalar.assembler, xp, k * dt, dt, scalar_stats).solution for xp in XP]
        )
        if atol:
            gap = np.abs(XP_new - alone).max()
            assert gap <= atol, f"round {k}: {gap}"
        elif not np.array_equal(XP_new, alone):
            np.testing.assert_array_equal(XP_new, alone, err_msg=f"round {k}")
        XP = XP_new
    assert batch_stats.newton_iterations == scalar_stats.newton_iterations
    return n_rounds


class TestBatchedMatchesScalar:
    def test_refresh_netlist_newton_rounds(self):
        circuit, t_stop, vdd = _refresh_setup()
        starts = np.linspace(0.70, 0.98, 8)
        n_rounds = _assert_rounds_match_newton(
            circuit, {"cell": starts * vdd}, t_stop, 10e-12
        )
        assert n_rounds > 1000  # through equalization, sharing and sensing

    def test_device_free_ladder_shares_one_factorization(self):
        # No devices: every lane shares one factorization and a
        # multi-RHS solve.  LAPACK's blocked multi-RHS back-substitution
        # may round the last ulp differently from the scalar's
        # column-at-a-time solve, so assert agreement to ~machine eps
        # rather than bitwise.
        circuit = _rc_ladder(12)
        session = BatchedCircuitSession(circuit)
        assert session.assembler.n_devices == 0
        stats = SolverStats()
        session._newton_batch(
            session.assembler, _lane_states(circuit, {"n12": np.zeros(3)}), 1e-11, 1e-11, stats
        )
        assert stats.factorizations == 1
        _assert_rounds_match_newton(
            circuit, {"n12": np.array([0.0, 0.3, 0.9])}, 2e-9, 1e-11, atol=1e-12
        )

    def test_large_ladder_with_device_is_bit_identical(self):
        # Hundreds of unknowns and a MOSFET: each lane's padded system
        # is still solved by its own dgesv, as the scalar round's is.
        circuit = _rc_ladder(210, with_device=True)
        assert BatchedCircuitSession(circuit).assembler.n_devices == 1
        _assert_rounds_match_newton(
            circuit, {"n210": np.array([0.0, 0.5, 1.0])}, 1e-9, 2e-11
        )

    def test_refresh_netlist_adaptive(self):
        # One controller steps every lane (sized by the worst lane's
        # truncation error), so a lane's step sequence differs from a
        # solo adaptive run's: the 2 mV envelope applies.
        circuit, t_stop, vdd = _refresh_setup()
        starts = np.linspace(0.72, 0.96, 6)
        batched = BatchedCircuitSession(circuit).simulate_batch(
            t_stop, 10e-12, record=["cell"], lane_overrides={"cell": starts * vdd},
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
            t_stop, 10e-12, record=["cell", "bl"],
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

    @pytest.mark.parametrize("start", [0.72, 0.90])
    def test_one_lane_run_equals_the_oracle_on_the_refresh_netlist(self, start):
        circuit, t_stop, vdd = _refresh_setup()
        session = CircuitSession(circuit)
        overrides = {"cell": start * vdd}
        assert_same_run(
            session.simulate(t_stop, 10e-12, adaptive=True, initial_overrides=overrides),
            reference_adaptive(session, t_stop, 10e-12, initial_overrides=overrides),
        )

    @pytest.mark.parametrize("name", sorted(NETLISTS))
    def test_one_lane_run_equals_the_oracle(self, name):
        circuit = NETLISTS[name]()
        sources = [e.name for e in circuit.elements if isinstance(e, VoltageSource)]
        session = CircuitSession(circuit)
        assert_same_run(
            session.simulate(2e-9, 10e-12, record_currents=sources, adaptive=True),
            reference_adaptive(session, 2e-9, 10e-12, record_currents=sources),
        )

    def test_shared_controller_caps_steps_at_dt_max_factor(self, monkeypatch):
        steps = []
        real = BatchedCircuitSession._newton_batch

        def spy(self, assembler, XP, t, dt, stats):
            steps.append(dt)
            return real(self, assembler, XP, t, dt, stats)

        monkeypatch.setattr(BatchedCircuitSession, "_newton_batch", spy)
        dt = 1e-12
        BatchedCircuitSession(_rc_ladder(3)).simulate_batch(
            4e-9, dt, lane_overrides={"n3": np.array([0.0, 0.5])}
        )
        assert max(steps) == DT_MAX_FACTOR * dt
        assert min(steps) >= dt / DT_MIN_DIVISOR

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
        real = BatchedCircuitSession._newton_batch
        rounds = []

        def sabotaged(self, assembler, XP, t, dt, stats):
            XP_new, converged = real(self, assembler, XP, t, dt, stats)
            rounds.append((XP.copy(), XP_new.copy(), t, dt))
            if len(rounds) == 1:  # the first round: pretend lane 1 stalled
                converged = converged.copy()
                converged[1] = False
            return XP_new, converged

        monkeypatch.setattr(BatchedCircuitSession, "_newton_batch", sabotaged)
        result = BatchedCircuitSession(circuit).simulate_batch(
            t_stop, 10e-12, record=["cell"], lane_overrides={"cell": starts}
        )
        assert np.isfinite(result["cell"]).all()
        (XP, solved, t, dt), after = rounds[0], rounds[1][0]
        # The step was accepted with lane 1 advanced alone through the
        # scalar path from its own start...
        solo = CircuitSession(circuit)
        alone = solo._advance(solo.assembler, XP[1].copy(), t - dt, dt, 0, SolverStats())
        np.testing.assert_array_equal(after[1], alone)
        # ...and the healthy neighbors kept the round's solutions untouched.
        np.testing.assert_array_equal(after[0], solved[0])
        np.testing.assert_array_equal(after[2], solved[2])

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
            1e-9, dt, lane_overrides={"n3": np.array([0.0, 0.5])}
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
