"""Rescue-ladder tests: gmin stepping, source stepping, and telemetry.

Covers architecture invariant 12 — the rescue ladder is only entered
after damped Newton and step halving are exhausted, so netlists that
already converge produce bit-identical results with the ladder present,
absent, or emptied — plus the ladder mechanics themselves: rung order,
warm starting, stage recording, the structured ConvergenceReport, and
the gshunt/source_scale deformation hooks of both assemblers.
"""

import numpy as np
import pytest

from repro.circuit import (
    Capacitor,
    Circuit,
    CircuitSession,
    ConvergenceError,
    ConvergenceReport,
    Element,
    GND,
    RescueAttempt,
    Resistor,
    SolverStats,
    VoltageSource,
    step,
)
from repro.circuit import rescue
from repro.circuit.compiled import ReferenceAssembler, build_assembler
from repro.circuit.rescue import GMIN_LADDER, SOURCE_LADDER, NewtonProbe, run_rescue


class _CubicChatter(Element):
    """f(v) = v^3 - 2v + 2, Jacobian-stamped.

    Damped Newton from 0 enters the exact 2-cycle {0.5, 1.0}; step
    halving cannot break it (the element is time-independent), but the
    gmin ladder deforms the cubic to its real root near -1.7693.
    """

    def __init__(self):
        super().__init__("cubic")

    def nodes(self):
        return ["a"]

    def stamp(self, G, I, x, v_prev, t, dt):
        idx = self._indices[0]
        v = x[idx]
        f = v**3 - 2.0 * v + 2.0
        df = 3.0 * v**2 - 2.0
        G[idx, idx] += df
        I[idx] += df * v - f


def _chattering_circuit():
    circuit = Circuit(name="cubic-chatter")
    circuit.add(_CubicChatter())
    return circuit


def _rc_circuit():
    """A well-behaved driven RC that never needs rescue."""
    circuit = Circuit(name="driven-rc")
    circuit.add(VoltageSource("V1", "in", GND, step(0.0, 1.2, 2e-10)))
    circuit.add(Resistor("R1", "in", "out", 1e4))
    circuit.add(Capacitor("C1", "out", GND, 1e-13))
    return circuit


# --------------------------------------------------------------------- #
# Ladder mechanics via synthetic Newton callbacks                        #
# --------------------------------------------------------------------- #


class TestRunRescueUnit:
    def test_gmin_stage_walks_the_full_ladder_warm_started(self):
        calls = []

        def newton(xp_start, gshunt, source_scale):
            calls.append((float(xp_start[0]), gshunt, source_scale))
            return NewtonProbe(xp_start + 1.0, 3, 1e-9, 0)

        solution, report = run_rescue(
            newton, np.zeros(2), netlist="unit", t=1e-9, dt=1e-10,
            node_names=["a"],
        )
        assert report.stage == "gmin"
        assert report.converged
        # Every rung converged, in descending-gshunt order, ending at
        # the identity rung (the original problem).
        assert [a.parameter for a in report.attempts] == list(GMIN_LADDER)
        assert all(a.converged and a.stage == "gmin" for a in report.attempts)
        assert calls[0][1] == GMIN_LADDER[0] and calls[-1][1] == 0.0
        assert all(scale == 1.0 for _, _, scale in calls)
        # Warm start: each rung begins from the previous rung's solution.
        assert [c[0] for c in calls] == list(range(len(GMIN_LADDER)))
        assert solution[0] == len(GMIN_LADDER)

    def test_source_stage_rescues_when_gmin_fails(self):
        def newton(xp_start, gshunt, source_scale):
            if gshunt > 0.0:
                return NewtonProbe(None, 60, 0.7, 0)
            # Source stepping succeeds only when warm-started within
            # reach of the rung's target (= the scale itself).
            target = source_scale
            if abs(float(xp_start[0]) - target) < 0.3:
                out = xp_start.copy()
                out[0] = target
                return NewtonProbe(out, 5, 1e-9, 0)
            return NewtonProbe(None, 60, 0.9, 0)

        solution, report = run_rescue(
            newton, np.zeros(2), netlist="unit", t=1e-9, dt=1e-10,
            node_names=["a"],
        )
        assert report.stage == "source"
        assert report.converged
        assert solution[0] == 1.0
        stages = {a.stage for a in report.attempts}
        assert stages == {"gmin", "source"}
        # The gmin stage stopped at its first failed rung.
        gmin_attempts = [a for a in report.attempts if a.stage == "gmin"]
        assert len(gmin_attempts) == 1 and not gmin_attempts[0].converged
        source_attempts = [a for a in report.attempts if a.stage == "source"]
        assert [a.parameter for a in source_attempts] == list(SOURCE_LADDER)
        assert "rescued via source" in report.summary()

    def test_exhausted_ladders_raise_with_the_report_attached(self):
        def newton(xp_start, gshunt, source_scale):
            return NewtonProbe(None, 60, 0.42, 1)

        with pytest.raises(ConvergenceError) as info:
            run_rescue(
                newton, np.zeros(3), netlist="doomed", t=2e-9, dt=5e-11,
                node_names=["a", "b"], subdivisions=8,
            )
        message = str(info.value)
        assert "t=2.000e-09s" in message and "dt=5.000e-11s" in message
        assert "in doomed" in message
        assert "after 8 step subdivisions" in message
        assert "rescue ladder exhausted" in message
        assert "gmin stepping: 1 rungs" in message  # stopped at first rung
        assert "source stepping: 1 rungs" in message
        assert "worst node 'b'" in message
        report = info.value.report
        assert report is not None and not report.converged
        assert report.stage == "failed"
        assert report.worst_node == "b"
        assert report.worst_residual == 0.42
        assert report.residual_trajectory == [0.42, 0.42]

    def test_emptied_ladders_cannot_vouch_for_a_solution(self, monkeypatch):
        monkeypatch.setattr(rescue, "GMIN_LADDER", ())
        monkeypatch.setattr(rescue, "SOURCE_LADDER", ())

        def newton(xp_start, gshunt, source_scale):  # pragma: no cover
            raise AssertionError("no ladder should call newton")

        with pytest.raises(ConvergenceError, match="gmin stepping: 0 rungs"):
            run_rescue(newton, np.zeros(1), netlist="empty", t=0.0, dt=1e-12)

    def test_ladders_are_normalized_to_end_at_the_identity(self, monkeypatch):
        monkeypatch.setattr(rescue, "GMIN_LADDER", (10.0, 1.0))
        seen = []

        def newton(xp_start, gshunt, source_scale):
            seen.append(gshunt)
            return NewtonProbe(xp_start, 1, 0.0, 0)

        _, report = run_rescue(
            newton, np.zeros(1), netlist="norm", t=0.0, dt=1e-12
        )
        assert seen == [10.0, 1.0, 0.0]  # identity rung appended
        assert report.stage == "gmin"

    def test_report_and_attempt_dict_forms_are_json_shaped(self):
        report = ConvergenceReport(
            netlist="n", time=1e-9, dt=1e-10, stage="gmin", converged=True,
            worst_node="a", worst_residual=0.1,
            attempts=[RescueAttempt("gmin", 1e3, 4, 1e-8, True)],
        )
        record = report.to_dict()
        assert record["stage"] == "gmin"
        assert record["attempts"][0] == {
            "stage": "gmin", "parameter": 1e3, "iterations": 4,
            "residual": 1e-8, "converged": True,
        }
        import json

        json.dumps(record)  # fully serializable


# --------------------------------------------------------------------- #
# Real circuits through the solver                                       #
# --------------------------------------------------------------------- #


class TestSolverRescue:
    def test_cubic_chatter_completes_via_gmin(self):
        result = CircuitSession(_chattering_circuit()).simulate(t_stop=1e-9, dt=1e-10)
        stats = result.stats
        assert stats.rescues >= 1
        report = stats.rescue_reports[0]
        assert report.stage == "gmin" and report.converged
        assert report.netlist == "cubic-chatter"
        assert report.attempts[-1].parameter == 0.0  # solved the original
        assert result["a"][-1] == pytest.approx(-1.7692923542386314)
        assert "rescues=" in stats.summary() and "gmin" in stats.summary()

    def test_converging_netlist_never_touches_the_ladder(self, monkeypatch):
        reference = CircuitSession(_rc_circuit()).simulate(t_stop=2e-9, dt=1e-11)
        assert reference.stats.rescues == 0
        assert reference.stats.rescue_reports == []
        assert "rescues" not in reference.stats.summary()

        # Emptying both ladders changes nothing: rescue is never entered.
        monkeypatch.setattr(rescue, "GMIN_LADDER", ())
        monkeypatch.setattr(rescue, "SOURCE_LADDER", ())
        emptied = CircuitSession(_rc_circuit()).simulate(t_stop=2e-9, dt=1e-11)
        for node in reference.nodes:
            np.testing.assert_array_equal(reference[node], emptied[node])

    def test_adaptive_path_rescues_too(self):
        result = CircuitSession(_chattering_circuit()).simulate(
            1e-9, 1e-10, adaptive=True
        )
        assert result.stats.rescues >= 1
        assert result.stats.rescue_reports[0].converged
        assert result["a"][-1] == pytest.approx(-1.7692923542386314)

    def test_stats_merge_carries_rescue_telemetry(self):
        first = CircuitSession(_chattering_circuit()).simulate(t_stop=1e-9, dt=1e-10)
        merged = SolverStats.combined([first.stats, first.stats])
        assert merged.rescues == 2 * first.stats.rescues
        assert len(merged.rescue_reports) == 2 * len(first.stats.rescue_reports)


# --------------------------------------------------------------------- #
# Deformation hooks: compiled vs reference assembly                      #
# --------------------------------------------------------------------- #


class TestDeformationEquivalence:
    @pytest.mark.parametrize("gshunt", [0.0, 0.5, 37.0])
    @pytest.mark.parametrize("source_scale", [1.0, 0.3, 0.0])
    def test_compiled_matches_reference_under_deformation(
        self, gshunt, source_scale
    ):
        circuit = _rc_circuit()
        size = circuit.assemble()
        compiled = build_assembler(circuit, size, sparse=False)
        reference = ReferenceAssembler(circuit, size, sparse=False)
        xp = np.zeros(size + 1)
        xp[0] = 0.7  # a non-trivial previous state
        t, dt = 3e-10, 1e-11
        x_compiled = compiled.prepare_step(
            xp, t, dt, SolverStats(), gshunt=gshunt, source_scale=source_scale
        )(xp)
        x_reference = reference.prepare_step(
            xp, t, dt, SolverStats(), gshunt=gshunt, source_scale=source_scale
        )(xp)
        np.testing.assert_allclose(x_compiled, x_reference, rtol=1e-12, atol=1e-15)

    def test_default_deformation_is_bit_identical_to_undeformed(self):
        circuit = _rc_circuit()
        size = circuit.assemble()
        compiled = build_assembler(circuit, size, sparse=False)
        xp = np.zeros(size + 1)
        t, dt = 3e-10, 1e-11
        plain = compiled.prepare_step(xp, t, dt, SolverStats())(xp)
        deformed = compiled.prepare_step(
            xp, t, dt, SolverStats(), gshunt=0.0, source_scale=1.0
        )(xp)
        np.testing.assert_array_equal(plain, deformed)
