"""Compiled-assembly and adaptive-stepping tests for the circuit stack.

Covers architecture invariant 10 (the compiled assembler and the
per-element stamping oracle of ``tests/reference_assembler.py`` produce
identical MNA systems), hypothesis property tests pinning the solver
against analytic RC/RLC solutions, compiled-vs-reference waveform
equivalence on every Fig. 2 netlist and on ladders of hundreds of
unknowns, the refusal of non-library elements, the adaptive integrator,
session reuse, the SolverStats telemetry, and the loader of SciPy's
LAPACK wrappers.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import (
    Capacitor,
    Circuit,
    CircuitSession,
    Element,
    GND,
    NMOS,
    PMOS,
    Resistor,
    SolverStats,
    TransientResult,
    VoltageSource,
    build_charge_sharing_circuit,
    build_equalization_circuit,
    build_refresh_circuit,
    build_sense_amplifier_circuit,
    step,
)
from repro.circuit.compiled import CompiledCircuit, build_assembler
from repro.circuit.dram_circuits import DEFAULT_REFRESH_PHASES
from repro.circuit.solver import (
    DT_MAX_FACTOR,
    DT_MIN_DIVISOR,
    MAX_NEWTON_ITERATIONS,
    NEWTON_ABSTOL,
)
from repro.technology import BankGeometry, DEFAULT_TECH
from tests.oracle_elements import CurrentSource, Inductor, InductorCircuit
from tests.reference_assembler import ReferenceAssembler, reference_session
from tests.test_circuit_waveforms import pulse

TECH = DEFAULT_TECH
SMALL = BankGeometry(2048, 32)
SRC = Path(__file__).resolve().parents[1] / "src"


def _refresh_session():
    """A compiled session over the full refresh netlist of the small bank."""
    return CircuitSession(build_refresh_circuit(TECH, SMALL, DEFAULT_REFRESH_PHASES))


def _rc_circuit(r, c, v0):
    """A discharging RC: capacitor at ``v0`` bleeding through ``r``."""
    circuit = Circuit(name="rc")
    circuit.add(Resistor("R1", "out", GND, r))
    circuit.add(Capacitor("C1", "out", GND, c, ic=v0))
    return circuit


class TestAnalyticAccuracy:
    """Property tests pinning the solver against closed-form solutions."""

    @given(
        r=st.floats(min_value=1e3, max_value=1e6),
        c=st.floats(min_value=1e-15, max_value=1e-12),
        v0=st.floats(min_value=0.1, max_value=2.0),
        steps=st.integers(min_value=20, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_rc_discharge_matches_analytic(self, r, c, v0, steps):
        """Backward Euler tracks ``v0 exp(-t/RC)`` to its O(dt) error bound."""
        tau = r * c
        t_stop = 3.0 * tau
        dt = t_stop / steps
        result = CircuitSession(_rc_circuit(r, c, v0)).simulate(
            t_stop, dt, record=["out"]
        )
        exact = v0 * np.exp(-result.time / tau)
        # Global BE error for exponential decay is bounded by
        # sup_t |t/(2 tau^2)| e^{1-t/tau} * dt * v0 <= (e/ 2 tau) dt v0.
        tol = 0.7 * v0 * dt / tau + 1e-9
        assert float(np.max(np.abs(result["out"] - exact))) < tol

    @given(
        r=st.floats(min_value=1.0, max_value=20.0),
        steps=st.integers(min_value=400, max_value=1200),
    )
    @settings(max_examples=20, deadline=None)
    def test_rlc_underdamped_matches_analytic(self, r, steps):
        """Series RLC ringdown matches the damped-cosine closed form (the
        inductor is the oracle's, so the session stamps per element)."""
        L = 1e-9
        c = 1e-12
        v0 = 1.0
        alpha = r / (2.0 * L)
        w0sq = 1.0 / (L * c)
        assert alpha * alpha < w0sq  # underdamped by construction
        wd = math.sqrt(w0sq - alpha * alpha)

        circuit = Circuit(name="rlc")
        circuit.add(Capacitor("C1", "vc", GND, c, ic=v0))
        circuit.add(Resistor("R1", "vc", "mid", r))
        circuit.add(Inductor("L1", "mid", GND, L))
        session = reference_session(circuit)
        t_stop = 2.0 * math.pi / wd  # one ring period
        dt = t_stop / steps
        result = session.simulate(t_stop, dt, record=["vc"])
        t = result.time
        exact = v0 * np.exp(-alpha * t) * (
            np.cos(wd * t) + (alpha / wd) * np.sin(wd * t)
        )
        # First-order integration of an oscillator: error ~ w0 dt per
        # radian of phase, accumulated over one period.
        tol = 8.0 * v0 * math.sqrt(w0sq) * dt + 1e-9
        assert float(np.max(np.abs(result["vc"] - exact))) < tol

    def test_rc_adaptive_matches_analytic(self):
        """The adaptive path hits the same analytic curve within lte_tol."""
        r, c, v0 = 1e5, 1e-13, 1.5
        tau = r * c
        session = CircuitSession(_rc_circuit(r, c, v0))
        result = session.simulate(3 * tau, tau / 100, record=["out"], adaptive=True)
        exact = v0 * np.exp(-result.time / tau)
        assert float(np.max(np.abs(result["out"] - exact))) < 0.02 * v0
        assert result.stats.accepted_steps > 0


#: The Fig. 2 netlists, for the compiled-vs-reference checks.
NETLISTS = {
    "equalization": lambda: build_equalization_circuit(TECH, SMALL),
    "charge-sharing": lambda: build_charge_sharing_circuit(TECH, SMALL),
    "sense-amp": lambda: build_sense_amplifier_circuit(TECH, SMALL, delta_v=0.1),
    "refresh": lambda: build_refresh_circuit(TECH, SMALL, DEFAULT_REFRESH_PHASES),
}


class TestCompiledReferenceEquivalence:
    @pytest.mark.parametrize("name", sorted(NETLISTS))
    def test_waveforms_agree_on_fig2_netlists(self, name):
        """Compiled and reference stamping integrate to the same trajectories."""
        build = NETLISTS[name]
        compiled = CircuitSession(build()).simulate(2e-9, 10e-12)
        reference = reference_session(build()).simulate(2e-9, 10e-12)
        assert compiled.nodes == reference.nodes
        for node in compiled.nodes:
            np.testing.assert_allclose(
                compiled[node], reference[node], atol=1e-6, rtol=0,
                err_msg=f"{name}:{node}",
            )

    @pytest.mark.parametrize("name", sorted(NETLISTS))
    def test_identical_mna_systems(self, name):
        """Invariant 10: both assemblers produce the same (G, I) system.

        Checked at a mid-trajectory state so the MOSFETs sit in mixed
        operating regions, not just at the initial condition.
        """
        build = NETLISTS[name]
        circuit = build()
        session = CircuitSession(circuit)
        assert isinstance(session.assembler, CompiledCircuit)
        size = circuit.assemble()
        mid = CircuitSession(build()).simulate(1e-9, 10e-12)
        x = np.zeros(size)
        for node in mid.nodes:
            x[circuit.node_id(node)] = mid[node][-1]
        v_prev = 0.95 * x
        reference = ReferenceAssembler(circuit, size)
        G_ref, I_ref = reference.system_matrices(x, v_prev, t=1e-9, dt=10e-12)
        G_cmp, I_cmp = session.assembler.system_matrices(x, v_prev, t=1e-9, dt=10e-12)
        np.testing.assert_allclose(G_cmp, G_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(I_cmp, I_ref, rtol=1e-11, atol=1e-18)

    def test_newton_iteration_counts_match(self):
        """Same damped-Newton trajectory => same iteration count."""
        compiled = CircuitSession(NETLISTS["refresh"]()).simulate(2e-9, 10e-12)
        reference = reference_session(NETLISTS["refresh"]()).simulate(2e-9, 10e-12)
        assert compiled.newton_iterations == reference.newton_iterations


class _SquishySource(Element):
    """Custom element with opaque stamp arithmetic (a nonlinear leak)."""

    def __init__(self, name, node):
        super().__init__(name)
        self.node = node

    def nodes(self):
        return [self.node]

    def stamp(self, G, I, x, v_prev, t, dt):
        idx = self._indices[0]
        G[idx, idx] += 1e-6 * (1.0 + x[idx] * x[idx])


class _TunedResistor(Resistor):
    """A library subclass: same arithmetic, but not exactly a library type."""


class TestPartition:
    def test_library_elements_compile(self):
        session = CircuitSession(NETLISTS["refresh"]())
        assembler = session.assembler
        assert isinstance(assembler, CompiledCircuit)
        assert assembler.n_devices > 0

    def test_custom_element_is_rejected_by_name_and_type(self):
        circuit = _rc_circuit(1e4, 1e-13, 1.0)
        circuit.add(_SquishySource("X1", "out"))
        with pytest.raises(TypeError, match="element 'X1' of type _SquishySource"):
            CircuitSession(circuit).simulate(1e-10, 1e-12, record=["out"])

    @pytest.mark.parametrize(
        "element, kind",
        [
            (_SquishySource("X1", "out"), "_SquishySource"),
            (_TunedResistor("R2", "out", GND, 1e4), "_TunedResistor"),
        ],
        ids=["custom-stamp", "library-subclass"],
    )
    def test_build_assembler_refuses_non_library_types(self, element, kind):
        """Library elements are recognised by exact type: an element with
        its own ``stamp`` and a subclass of a library type both refuse."""
        circuit = _rc_circuit(1e4, 1e-13, 1.0)
        circuit.add(element)
        size = circuit.assemble()
        with pytest.raises(TypeError, match=f"element '{element.name}' of type {kind} "):
            build_assembler(circuit, size)

    def test_custom_element_runs_on_the_reference_oracle(self):
        circuit = _rc_circuit(1e4, 1e-13, 1.0)
        circuit.add(_SquishySource("X1", "out"))
        session = reference_session(circuit)
        assert isinstance(session.assembler, ReferenceAssembler)
        result = session.simulate(1e-10, 1e-12, record=["out"])
        assert np.all(np.isfinite(result["out"]))

    def test_partition_classifies_elements(self):
        circuit = NETLISTS["refresh"]()
        circuit.assemble()
        linear, nonlinear, opaque = circuit.partition()
        assert not opaque
        assert all(isinstance(e, (NMOS, PMOS)) for e in nonlinear)
        assert len(linear) + len(nonlinear) == len(circuit.elements)

    def test_session_recompiles_after_element_add(self):
        circuit = _rc_circuit(1e4, 1e-13, 1.0)
        session = CircuitSession(circuit)
        first = session.assembler
        circuit.add(Resistor("R2", "out", GND, 1e5))
        assert session.assembler is not first


class TestLargeLadder:
    """Hundreds of unknowns, several times the largest Fig. 2 system."""

    def _ladder(self, n):
        """An RC ladder with > n unknowns driven by a step source."""
        circuit = Circuit(name="ladder")
        circuit.add(VoltageSource("V1", "n0", GND, step(0.0, 1.0, 1e-11)))
        for k in range(n):
            circuit.add(Resistor(f"R{k}", f"n{k}", f"n{k + 1}", 1e3))
            circuit.add(Capacitor(f"C{k}", f"n{k + 1}", GND, 1e-14))
        return circuit

    def test_ladder_with_device_matches_reference(self):
        n = 210

        def build():
            circuit = self._ladder(n)
            circuit.add(NMOS("M1", d=f"n{n}", g="n1", s=GND, beta=1e-4, vt=0.4))
            return circuit

        compiled = CircuitSession(build()).simulate(2e-11, 1e-12, record=[f"n{n}"])
        reference = reference_session(build()).simulate(2e-11, 1e-12, record=[f"n{n}"])
        np.testing.assert_allclose(compiled[f"n{n}"], reference[f"n{n}"], atol=1e-6)


class TestAdaptiveStepping:
    def test_refresh_waveforms_match_fixed_within_tolerance(self):
        session = _refresh_session()
        record = ["cell", "bl", "blb"]
        fixed = session.simulate(30e-9, 5e-12, record=record)
        adaptive = session.simulate(30e-9, 5e-12, record=record, adaptive=True)
        assert adaptive.time.shape == fixed.time.shape
        for node in record:
            assert float(np.max(np.abs(adaptive[node] - fixed[node]))) < 10e-3

    def test_adaptive_does_less_work(self):
        session = _refresh_session()
        fixed = session.simulate(30e-9, 5e-12, record=["cell"])
        adaptive = session.simulate(30e-9, 5e-12, record=["cell"], adaptive=True)
        assert adaptive.stats.newton_iterations < fixed.stats.newton_iterations / 2
        assert adaptive.stats.accepted_steps < fixed.stats.accepted_steps

    def test_stats_non_degenerate(self):
        session = _refresh_session()
        result = session.simulate(30e-9, 5e-12, record=["cell"], adaptive=True)
        stats = result.stats
        assert stats.newton_iterations > 0
        assert stats.factorizations > 0
        assert stats.accepted_steps > 0
        assert stats.newton_iterations >= stats.accepted_steps

    def test_breakpoints_are_harvested_from_waveforms(self):
        wave = step(0.0, 1.0, 2e-9, t_rise=1e-11)
        assert wave.breakpoints == (2e-9, 2e-9 + 1e-11)
        train = pulse(0.0, 1.0, 1e-9, width=2e-9)
        assert len(train.breakpoints) == 4
        circuit = Circuit(name="bp")
        circuit.add(VoltageSource("V1", "in", GND, wave))
        circuit.add(Resistor("R1", "in", "out", 1e3))
        circuit.add(Capacitor("C1", "out", GND, 1e-13))
        session = CircuitSession(circuit)
        harvested = session._harvest_breakpoints(10e-9)
        assert list(harvested) == [2e-9, 2e-9 + 1e-11]

    def test_adaptive_lands_on_late_step(self):
        """A step late in the run is not smeared by a grown step size."""
        circuit = Circuit(name="late-step")
        circuit.add(VoltageSource("V1", "in", GND, step(0.0, 1.0, 8e-9, t_rise=1e-11)))
        circuit.add(Resistor("R1", "in", "out", 1e3))
        circuit.add(Capacitor("C1", "out", GND, 1e-14))
        session = CircuitSession(circuit)
        result = session.simulate(10e-9, 1e-11, record=["out"], adaptive=True)
        # Before the step the output is flat 0; after, it charges to 1.
        assert abs(result.at("out", 7.9e-9)) < 1e-6
        assert result.at("out", 9.9e-9) > 0.99


def _spy_newton(monkeypatch):
    """Record ``(t_end, dt, probe)`` of every Newton attempt a session makes."""
    attempts = []
    real = CircuitSession._newton

    def spy(self, assembler, xp, t, dt, stats, *args, **kwargs):
        probe = real(self, assembler, xp, t, dt, stats, *args, **kwargs)
        attempts.append((t, dt, probe))
        return probe

    monkeypatch.setattr(CircuitSession, "_newton", spy)
    return attempts


def _step_rc(r, c):
    circuit = Circuit(name="step-rc")
    circuit.add(VoltageSource("V1", "in", GND, step(0.0, 1.0, 2e-10, t_rise=1e-11)))
    circuit.add(Resistor("R1", "in", "out", r))
    circuit.add(Capacitor("C1", "out", GND, c))
    return circuit


class TestAdaptiveStepBounds:
    """The adaptive controller's constants bound every step it tries."""

    def test_steps_grow_to_dt_max_factor_and_no_further(self, monkeypatch):
        attempts = _spy_newton(monkeypatch)
        dt = 1e-12
        # A slow RC (tau = 1 us) lets the step double until it hits the cap.
        CircuitSession(_rc_circuit(1e6, 1e-12, 1.0)).simulate(2e-9, dt, adaptive=True)
        steps = [step_dt for _, step_dt, _ in attempts]
        assert max(steps) == DT_MAX_FACTOR * dt

    def test_lte_rejections_stop_at_dt_min_divisor(self, monkeypatch):
        attempts = _spy_newton(monkeypatch)
        dt, t_stop = 1e-11, 1e-9
        # tau = 0.1 ps against a 10 ps step: every edge step is rejected
        # down to the floor, where the controller accepts it.
        circuit = _step_rc(1e3, 1e-16)
        result = CircuitSession(circuit).simulate(t_stop, dt, adaptive=True)
        assert result.stats.rejected_steps > 0
        landings = set(CircuitSession(circuit)._harvest_breakpoints(t_stop)) | {t_stop}
        free = [step_dt for t, step_dt, _ in attempts if t not in landings]
        assert min(free) == pytest.approx(dt / DT_MIN_DIVISOR, rel=1e-12)


class TestNewtonContract:
    def test_converged_probes_are_under_abstol_within_the_budget(self, monkeypatch):
        attempts = _spy_newton(monkeypatch)
        _refresh_session().simulate(5e-9, 5e-12, record=["cell"])
        probes = [probe for _, _, probe in attempts]
        assert probes and all(p.solution is not None for p in probes)
        assert all(p.residual < NEWTON_ABSTOL for p in probes)
        assert max(p.iterations for p in probes) <= MAX_NEWTON_ITERATIONS
        assert max(p.iterations for p in probes) > 1  # the latch needs real Newton work


class TestSessionApi:
    def test_initial_overrides_set_start_voltage(self):
        session = _refresh_session()
        for v in (0.5, 0.7):
            result = session.simulate(1e-10, 1e-12, record=["cell"],
                                      initial_overrides={"cell": v})
            assert result["cell"][0] == pytest.approx(v)

    def test_initial_overrides_reject_ground_and_unknown(self):
        session = _refresh_session()
        with pytest.raises(KeyError, match="ground"):
            session.simulate(1e-10, 1e-12, initial_overrides={GND: 1.0})
        with pytest.raises(KeyError):
            session.simulate(1e-10, 1e-12, initial_overrides={"no_such_node": 1.0})

    def test_recompile_picks_up_in_place_value_edits(self):
        """Element values are compiled in: an in-place edit takes effect
        only after :meth:`CircuitSession.recompile`."""
        circuit = _rc_circuit(1e3, 1e-12, 1.0)
        session = CircuitSession(circuit)
        before = session.simulate(1e-9, 1e-11, record=["out"])["out"]
        circuit.elements[0].resistance = 2e3
        stale = session.simulate(1e-9, 1e-11, record=["out"])["out"]
        np.testing.assert_array_equal(stale, before)
        session.recompile()
        fresh = session.simulate(1e-9, 1e-11, record=["out"])["out"]
        np.testing.assert_array_equal(
            fresh, CircuitSession(_rc_circuit(2e3, 1e-12, 1.0)).simulate(
                1e-9, 1e-11, record=["out"])["out"]
        )
        assert fresh[-1] > before[-1]  # a slower discharge through 2 kOhm

    def test_transient_result_currents_not_shared(self):
        """The dataclass default is a per-instance dict, not a shared one."""
        a = TransientResult(time=np.zeros(1), voltages={})
        b = TransientResult(time=np.zeros(1), voltages={})
        a.currents["x"] = np.ones(1)
        assert b.currents == {}

    def test_solver_stats_merge_and_summary(self):
        a = SolverStats(newton_iterations=3, factorizations=2, accepted_steps=1)
        b = SolverStats(newton_iterations=4, rejected_steps=5, subdivisions=6)
        total = SolverStats().merge(a).merge(b)
        assert total.newton_iterations == 7
        assert total.factorizations == 2
        assert total.rejected_steps == 5
        assert total.subdivisions == 6
        text = total.summary()
        assert "newton=7" in text and "rejected=5" in text


class TestInductorElement:
    """The oracle's inductor and current source: the library refuses
    them, the stamping oracle solves them."""

    def test_rejects_nonpositive_inductance(self):
        with pytest.raises(ValueError, match="inductance"):
            Inductor("L1", "a", "b", 0.0)

    def test_initial_current_flows(self):
        """An inductor with ic drives its current through a resistor."""
        circuit = InductorCircuit(name="li")
        circuit.add(Inductor("L1", "out", GND, 1e-9, ic=1e-3))
        circuit.add(Resistor("R1", "out", GND, 1e3))
        result = reference_session(circuit).simulate(1e-12, 1e-13, record=["out"])
        # One backward-Euler step of the L/R loop: the 1 mA loop current
        # pulls the node to -(L/dt) i0 / (1 + (L/dt)/R) = -10/11 V.
        assert result["out"][1] == pytest.approx(-10.0 / 11.0, rel=1e-6)

    def test_current_source_compiles(self):
        circuit = Circuit(name="cs")
        circuit.add(CurrentSource("I1", GND, "out", 1e-6))
        circuit.add(Resistor("R1", "out", GND, 1e3))
        with pytest.raises(TypeError, match="element 'I1' of type CurrentSource "):
            CircuitSession(circuit).simulate(1e-10, 1e-12, record=["out"])
        session = reference_session(circuit)
        assert isinstance(session.assembler, ReferenceAssembler)
        result = session.simulate(1e-10, 1e-12, record=["out"])
        assert result["out"][-1] == pytest.approx(1e-3, rel=1e-6)


# --------------------------------------------------------------------- #
# The LAPACK loader                                                     #
# --------------------------------------------------------------------- #

#: Solves random systems at the verbs' sizes with the routines the loader
#: binds, in the solver's calling conventions, before ``scipy.linalg``
#: is imported; then with the public ``scipy.linalg`` route.  Prints the
#: bytes of both, and whether the two routes share their routines.
_LOADER_PROBE = """
import json, sys
import numpy as np
from repro.circuit.compiled import _lapack

lapack = _lapack()
unloaded = "scipy.linalg" not in sys.modules
rng = np.random.default_rng(2018)
systems = []
for n in (18, 22, 29, 50):
    lanes = [(rng.standard_normal((n, n)), rng.standard_normal(n)) for _ in range(3)]
    systems.append((n, lanes))

def padded(n, lanes):
    # prepare_step_batched's round buffer: per lane a Fortran-ordered
    # padded [G 0; 0 1] and its RHS [I 0] (prepare_step's is one lane).
    stride = n + 1
    buffer = np.zeros((len(lanes), stride * stride + stride))
    lane_G = list(buffer[:, : stride * stride].reshape(-1, stride, stride).transpose(0, 2, 1))
    lane_I = list(buffer[:, stride * stride :])
    for (A, b), G, I in zip(lanes, lane_G, lane_I):
        G[:n, :n] = A
        G[n, n] = 1.0
        I[:n] = b
    return buffer, lane_G, lane_I

loaded = {"one-lane": [], "batched": []}
for n, lanes in systems:
    buffer, lane_G, lane_I = padded(n, lanes[:1])
    assert lapack.dgesv(lane_G[0], lane_I[0], 1, 1)[3] == 0
    loaded["one-lane"].append(lane_I[0][:n].tobytes().hex())
    buffer, lane_G, lane_I = padded(n, lanes)
    infos = [lapack.dgesv(G, I, 1, 1)[3] for G, I in zip(lane_G, lane_I)]
    assert infos == [0, 0, 0]
    loaded["batched"].append(buffer[:, -(n + 1) : -1].tobytes().hex())

from scipy.linalg import lapack as public

public_route = {"one-lane": [], "batched": []}
for n, lanes in systems:
    G = padded(n, lanes[:1])[1][0]
    b = np.zeros(n + 1)
    b[:n] = lanes[0][1]
    public_route["one-lane"].append(public.dgesv(G.copy(), b)[2][:n].tobytes().hex())
    xs = []
    for A, b_lane in lanes:
        G = padded(n, [(A, b_lane)])[1][0]
        b = np.zeros(n + 1)
        b[:n] = b_lane
        xs.append(public.dgesv(G.copy(), b)[2][:n])
    public_route["batched"].append(np.array(xs).tobytes().hex())

print(json.dumps({
    "unloaded": unloaded,
    "same": lapack.dgesv is public.dgesv,
    "loaded": loaded,
    "public": public_route,
}))
"""

#: The loader with its extension lookup finding nothing: it takes the
#: public ``scipy.linalg.lapack`` route.
_FALLBACK_PROBE = """
import importlib.machinery, json, sys
importlib.machinery.EXTENSION_SUFFIXES = []
from repro.circuit.compiled import _lapack

lapack = _lapack()
loaded = "scipy.linalg" in sys.modules
from scipy.linalg import lapack as public
print(json.dumps({
    "loaded": loaded,
    "same": lapack.dgesv is public.dgesv,
}))
"""


def _probe(source: str) -> dict:
    """Run ``source`` in a fresh interpreter; its last line, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True, env=env, check=True
    ).stdout
    return json.loads(out.splitlines()[-1])


class TestLapackLoader:
    """``_lapack()`` loads SciPy's LAPACK extension alone; same routines."""

    def test_loaded_routines_are_the_public_ones_to_the_byte(self):
        result = _probe(_LOADER_PROBE)
        assert result["unloaded"], "the loader imported the scipy.linalg package"
        assert result["same"]
        for path in ("one-lane", "batched"):
            assert result["loaded"][path] == result["public"][path], path

    def test_fallback_binds_the_same_routines(self):
        result = _probe(_FALLBACK_PROBE)
        assert result["loaded"], "the fallback should take the public route"
        assert result["same"]
