"""Newton rescue ladders: gmin stepping and source stepping.

Damped Newton plus step halving (the solver's first two lines of
defense) fail on netlists whose linearization oscillates — the damped
update can enter an exact limit cycle that no smaller time step breaks,
because the failure is in the nonlinear solve, not the integration.
SPICE's classical answer is *continuation*: deform the problem into one
Newton can solve, then walk the deformation back to the original
problem, warm-starting each rung from the last.

Two ladders are attempted, in order:

* **gmin stepping** — a shunt conductance ``g`` is added to every node
  diagonal, starting large (the system is then diagonally dominated and
  trivially convergent) and relaxed rung by rung down to exactly zero.
  The final rung *is* the original problem, so a completed ladder is a
  genuine solution, not an approximation.
* **source stepping** — every library voltage source's contribution is
  scaled by ``alpha`` ramped from 0 (all supplies off, the quiescent
  system) to exactly 1.  Only the source RHS terms are scaled; companion
  history (capacitor state) is never touched.

Every rung is recorded as a :class:`RescueAttempt` inside a
:class:`ConvergenceReport`, which travels on
:class:`~repro.circuit.solver.SolverStats` on success and on
:class:`ConvergenceError` on final failure — runner manifests then show
*which* stage rescued (or how far each ladder got) without re-running.

The ladders are module globals so tests can shorten or disable a stage.
Rescue is only entered after the normal path has exhausted its step
subdivisions, so netlists that already converge never execute any of
this code (architecture invariant 12: bit-identical results, goldens
unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "GMIN_LADDER",
    "SOURCE_LADDER",
    "ConvergenceError",
    "ConvergenceReport",
    "NewtonProbe",
    "RescueAttempt",
    "run_rescue",
]


class ConvergenceError(RuntimeError):
    """Raised when Newton iteration fails to converge at a time point.

    Attributes:
        report: the :class:`ConvergenceReport` describing every rescue
            attempt at the failed step, or ``None`` when the error was
            raised before the rescue ladder could run.
    """

    def __init__(self, message: str, report: Optional["ConvergenceReport"] = None):
        super().__init__(message)
        self.report = report


#: Gmin continuation ladder (siemens), descending.  Rungs are spaced a
#: factor ~3 apart through the decades where circuit conductances live —
#: larger jumps can strand the warm start outside the new rung's Newton
#: basin.  The final rung is exactly 0.0: completing the ladder solves
#: the *original* system.
GMIN_LADDER: Sequence[float] = (
    1e3, 3e2, 1e2, 3e1, 1e1, 3.0, 1.0, 0.3, 0.1, 0.03, 0.01,
    1e-3, 1e-4, 1e-6, 1e-8, 0.0,
)

#: Source-stepping ladder: supply scale ramped from 0 (all sources off)
#: to exactly 1 (the original system).
SOURCE_LADDER: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


class NewtonProbe(NamedTuple):
    """Outcome of one damped-Newton attempt (one rescue rung or plain step).

    Attributes:
        solution: the converged padded state vector, or ``None``.
        iterations: Newton iterations spent in this attempt.
        residual: last undamped update norm over node voltages (volts);
            below :data:`~repro.circuit.solver.NEWTON_ABSTOL` iff
            converged.
        worst_index: node index of the largest last update (``-1`` when
            the system has no nodes).
        singular: the factorization failure message when the attempt
            died on a singular matrix, else ``None``.
    """

    solution: Optional[np.ndarray]
    iterations: int
    residual: float
    worst_index: int
    singular: Optional[str] = None


@dataclass
class RescueAttempt:
    """One rung of a rescue ladder.

    Attributes:
        stage: ``"gmin"`` or ``"source"``.
        parameter: the rung's shunt conductance (S) or source scale.
        iterations: Newton iterations spent on this rung.
        residual: final undamped update norm (volts).
        converged: whether the rung's Newton iteration converged.
    """

    stage: str
    parameter: float
    iterations: int
    residual: float
    converged: bool

    def to_dict(self) -> dict:
        """JSON-shaped record of this rung (for manifests)."""
        return {
            "stage": self.stage,
            "parameter": self.parameter,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
        }


@dataclass
class ConvergenceReport:
    """Structured record of one rescued (or unrescuable) time step.

    Attributes:
        netlist: circuit name.
        time: the time point Newton failed at (seconds).
        dt: the step size at that point (seconds).
        stage: ``"gmin"`` or ``"source"`` when a ladder completed,
            ``"failed"`` when both were exhausted.
        converged: whether any ladder produced a genuine solution.
        worst_node: name of the node with the largest unconverged
            update across failed attempts (the likely culprit).
        worst_residual: that node's last update norm (volts).
        attempts: every rung attempted, in order.
    """

    netlist: str
    time: float
    dt: float
    stage: str = "failed"
    converged: bool = False
    worst_node: str = ""
    worst_residual: float = 0.0
    attempts: List[RescueAttempt] = field(default_factory=list)

    def summary(self) -> str:
        """One-line digest for experiment notes and error messages."""
        rungs = {"gmin": 0, "source": 0}
        for a in self.attempts:
            rungs[a.stage] = rungs.get(a.stage, 0) + 1
        outcome = f"rescued via {self.stage}" if self.converged else "rescue failed"
        worst = f", worst node {self.worst_node!r}" if self.worst_node else ""
        return (
            f"{outcome} at t={self.time:.3e}s dt={self.dt:.3e}s in {self.netlist} "
            f"(gmin rungs={rungs['gmin']}, source rungs={rungs['source']}{worst})"
        )

    def to_dict(self) -> dict:
        """JSON-serializable payload for runner manifests."""
        return {
            "netlist": self.netlist,
            "time": self.time,
            "dt": self.dt,
            "stage": self.stage,
            "converged": self.converged,
            "worst_node": self.worst_node,
            "worst_residual": self.worst_residual,
            "attempts": [a.to_dict() for a in self.attempts],
        }


#: Signature of the Newton callback handed to :func:`run_rescue`:
#: ``newton(xp_start, gshunt, source_scale) -> NewtonProbe``.
NewtonFn = Callable[[np.ndarray, float, float], NewtonProbe]


def _node_name(node_names: Sequence[str], index: int) -> str:
    return node_names[index] if 0 <= index < len(node_names) else ""


def _normalized(ladder: Sequence[float], identity: float) -> Tuple[float, ...]:
    """The ladder with the identity rung (original problem) appended if absent."""
    rungs = tuple(float(v) for v in ladder)
    if rungs and rungs[-1] != identity:
        rungs += (identity,)
    return rungs


def _climb(
    newton: NewtonFn,
    xp_start: np.ndarray,
    stage: str,
    ladder: Tuple[float, ...],
    param_to_args: Callable[[float], Tuple[float, float]],
    report: ConvergenceReport,
    node_names: Sequence[str],
) -> Optional[np.ndarray]:
    """Walk one ladder, warm-starting each rung; ``None`` on any failed rung.

    An empty ladder counts as failed — the stage never reached the
    original problem, so it cannot vouch for a solution.
    """
    if not ladder:
        return None
    xp = xp_start
    for parameter in ladder:
        gshunt, source_scale = param_to_args(parameter)
        probe = newton(xp, gshunt, source_scale)
        report.attempts.append(
            RescueAttempt(
                stage=stage,
                parameter=parameter,
                iterations=probe.iterations,
                residual=probe.residual,
                converged=probe.solution is not None,
            )
        )
        if probe.solution is None:
            if probe.residual >= report.worst_residual:
                report.worst_residual = probe.residual
                report.worst_node = _node_name(node_names, probe.worst_index)
            return None
        xp = probe.solution
    return xp


def run_rescue(
    newton: NewtonFn,
    xp_start: np.ndarray,
    *,
    netlist: str,
    t: float,
    dt: float,
    node_names: Sequence[str] = (),
    subdivisions: int = 0,
) -> Tuple[np.ndarray, ConvergenceReport]:
    """Escalate a failed Newton step through gmin then source stepping.

    Args:
        newton: damped-Newton callback; called as
            ``newton(xp_start, gshunt, source_scale)`` and returning a
            :class:`NewtonProbe`.
        xp_start: the padded state vector the failed step started from.
        netlist: circuit name (for the report and error message).
        t: time point of the failed step (seconds).
        dt: step size of the failed step (seconds).
        node_names: node names, for worst-node diagnostics.
        subdivisions: step halvings already spent (for the message).

    Returns:
        ``(solution, report)`` where the solution solves the *original*
        system (the last rung of either ladder is the undeformed
        problem).

    Raises:
        ConvergenceError: both ladders exhausted; the report travels on
            the exception's ``report`` attribute.
    """
    report = ConvergenceReport(netlist=netlist, time=t, dt=dt)

    solution = _climb(
        newton, xp_start, "gmin", _normalized(GMIN_LADDER, 0.0),
        lambda g: (g, 1.0), report, node_names,
    )
    if solution is None:
        solution = _climb(
            newton, xp_start, "source", _normalized(SOURCE_LADDER, 1.0),
            lambda alpha: (0.0, alpha), report, node_names,
        )
        if solution is not None:
            report.stage = "source"
    else:
        report.stage = "gmin"

    if solution is not None:
        report.converged = True
        return solution, report

    gmin_rungs = sum(1 for a in report.attempts if a.stage == "gmin")
    source_rungs = sum(1 for a in report.attempts if a.stage == "source")
    worst = f"; worst node {report.worst_node!r}" if report.worst_node else ""
    raise ConvergenceError(
        f"Newton failed at t={t:.3e}s (dt={dt:.3e}s) in {netlist} even after "
        f"{subdivisions} step subdivisions; rescue ladder exhausted "
        f"(gmin stepping: {gmin_rungs} rungs, source stepping: "
        f"{source_rungs} rungs){worst}",
        report=report,
    )
