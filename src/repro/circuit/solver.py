"""Transient solver: backward-Euler integration with Newton-Raphson.

At every time point the solver assembles the MNA system and iterates
Newton until the node voltages converge.  Backward Euler is
unconditionally stable, which matters here because DRAM sense
amplification is a stiff positive-feedback process.

The solver is a compile-then-run pipeline.  :class:`CircuitSession`
compiles a circuit once (:mod:`repro.circuit.compiled` partitions it
into linear structure and vectorized nonlinear devices) and then runs
any number of transients against the compiled form:

* **fixed-step** (the seed behaviour): uniform ``dt`` with recursive
  step halving when Newton fails across a stiff event, or
* **adaptive**: local-truncation-error step control that grows and
  shrinks ``dt`` between ``dt_min``/``dt_max``, lands exactly on source
  breakpoints, and falls back to the same halving on Newton failure.
  Results are resampled onto the uniform ``dt`` grid so
  :class:`TransientResult` consumers are unchanged.

When halving cannot save a step, the solver escalates through the
gmin/source-stepping rescue ladder (:mod:`repro.circuit.rescue`) before
giving up; rescued steps and their :class:`ConvergenceReport` records
land on the run's stats, and a final failure raises
:class:`ConvergenceError` carrying the same report.

Every run returns :class:`SolverStats` telemetry (Newton iterations,
factorizations, accepted/rejected steps, subdivisions, rescues).

Dense linear algebra is used below :data:`SPARSE_THRESHOLD` unknowns;
larger systems (many coupled bitlines) stamp directly into a
precomputed CSC pattern and never materialize a dense matrix.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..guard import assert_finite
from .compiled import ReferenceAssembler, SingularSystemError, build_assembler
from .netlist import Circuit
from .rescue import (  # noqa: F401  (ConvergenceError re-exported for back-compat)
    ConvergenceError,
    ConvergenceReport,
    NewtonProbe,
    run_rescue,
)

#: Switch to sparse factorization above this many unknowns.
SPARSE_THRESHOLD = 200

#: Maximum levels of automatic time-step halving on Newton failure.
MAX_SUBDIVISIONS = 8

#: Newton damping: cap on the per-iteration node-voltage update (volts).
_MAX_NEWTON_STEP = 0.5

#: Adaptive control: growth-factor bounds and safety margin.
_GROW_MAX = 2.0
_SHRINK_MIN = 0.2
_SAFETY = 0.9


@dataclass
class SolverStats:
    """Telemetry from one (or several merged) transient runs.

    Attributes:
        newton_iterations: total Newton-Raphson iterations performed.
        factorizations: LU factorizations of the MNA matrix.  Lower than
            ``newton_iterations`` when a factorization is reused (linear
            circuits at a fixed ``dt`` factor once per step size).
        accepted_steps: time steps committed to the trajectory.
        rejected_steps: steps solved but discarded by the adaptive
            local-truncation-error test (always 0 for fixed-step runs).
        subdivisions: step halvings forced by Newton non-convergence.
        rescues: steps salvaged by the gmin/source-stepping rescue
            ladder after subdivision was exhausted (always 0 for
            netlists where plain Newton converges).
        rescue_reports: one :class:`~repro.circuit.rescue.ConvergenceReport`
            per rescued step, recording the stage and every rung.
    """

    newton_iterations: int = 0
    factorizations: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    subdivisions: int = 0
    rescues: int = 0
    rescue_reports: List[ConvergenceReport] = field(default_factory=list)

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Accumulate ``other`` into this record (in place) and return self."""
        self.newton_iterations += other.newton_iterations
        self.factorizations += other.factorizations
        self.accepted_steps += other.accepted_steps
        self.rejected_steps += other.rejected_steps
        self.subdivisions += other.subdivisions
        self.rescues += other.rescues
        self.rescue_reports.extend(other.rescue_reports)
        return self

    @classmethod
    def combined(cls, stats: Iterable[Optional["SolverStats"]]) -> "SolverStats":
        """Sum of several stats records; ``None`` entries are skipped."""
        total = cls()
        for s in stats:
            if s is not None:
                total.merge(s)
        return total

    def summary(self) -> str:
        """One-line human-readable digest for experiment notes."""
        text = (
            f"newton={self.newton_iterations} factorizations={self.factorizations} "
            f"steps={self.accepted_steps} rejected={self.rejected_steps} "
            f"subdivisions={self.subdivisions}"
        )
        if self.rescues:
            stages = ",".join(r.stage for r in self.rescue_reports) or "?"
            text += f" rescues={self.rescues}({stages})"
        return text


@dataclass
class TransientResult:
    """Waveforms produced by a transient run.

    Index with a node name to get its voltage trace as a numpy array::

        result = CircuitSession(circuit).simulate(t_stop=1e-9, dt=1e-12)
        v = result["bl"]          # np.ndarray, same length as result.time
        v0 = result.at("bl", 0.5e-9)  # linear interpolation
    """

    time: np.ndarray
    voltages: Dict[str, np.ndarray]
    newton_iterations: int = 0
    currents: Dict[str, np.ndarray] = field(default_factory=dict)
    stats: Optional[SolverStats] = None

    def __getitem__(self, node: str) -> np.ndarray:
        return self.voltages[node]

    def __contains__(self, node: str) -> bool:
        return node in self.voltages

    def at(self, node: str, t: float) -> float:
        """Linearly-interpolated voltage of ``node`` at time ``t``."""
        return float(np.interp(t, self.time, self.voltages[node]))

    @property
    def nodes(self) -> List[str]:
        """Node names with recorded waveforms."""
        return list(self.voltages)

    def current(self, source_name: str) -> np.ndarray:
        """Branch current through a recorded voltage source (amperes).

        Positive current flows from the source's ``a`` terminal through
        the external circuit into ``b`` (SPICE convention: the MNA
        branch unknown, negated).
        """
        if source_name not in self.currents:
            raise KeyError(
                f"no recorded current for {source_name!r}; pass record_currents "
                f"to CircuitSession.simulate"
            )
        return self.currents[source_name]


class CircuitSession:
    """Compiled transient-analysis session over one :class:`Circuit`.

    Compiles the circuit's MNA structure on first use and reuses it for
    every subsequent :meth:`simulate` call — sweeps that re-simulate the
    same netlist with different stop times, step sizes, or initial
    conditions (e.g. the MPRSF retention sweep) pay the assembly walk
    once instead of once per Newton iteration per run.

    The session assumes the circuit is structurally frozen: if elements
    are added or removed the session recompiles automatically, but
    in-place mutation of element *values* (a resistance, a waveform)
    requires an explicit :meth:`recompile`.

    Args:
        circuit: the netlist to simulate.
        abstol: Newton convergence tolerance on node voltages (volts).
        max_newton: maximum Newton iterations per time point before the
            step is retried with damping and finally aborted.
        assembly: ``"auto"`` (default) compiles library elements and
            falls back to reference stamping only for circuits with
            custom user elements; ``"naive"`` forces per-iteration
            reference stamping everywhere (the seed solver's behaviour,
            kept for verification).
    """

    def __init__(
        self,
        circuit: Circuit,
        abstol: float = 1e-6,
        max_newton: int = 60,
        assembly: str = "auto",
    ):
        if assembly not in ("auto", "naive"):
            raise ValueError(f"assembly must be 'auto' or 'naive', got {assembly!r}")
        self.circuit = circuit
        self.abstol = abstol
        self.max_newton = max_newton
        self.assembly = assembly
        self._assembler = None
        self._structure_key: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ #
    # compilation                                                         #
    # ------------------------------------------------------------------ #

    @property
    def assembler(self):
        """The compiled (or reference) assembler, building it if needed."""
        return self._ensure_compiled()

    def recompile(self) -> None:
        """Drop the compiled structure; the next run recompiles from scratch."""
        self._assembler = None
        self._structure_key = None

    def _ensure_compiled(self):
        """Compile on first use; recompile if the element set changed."""
        size = self.circuit.assemble()
        key = (len(self.circuit.elements), size)
        if self._assembler is None or self._structure_key != key:
            sparse = size > SPARSE_THRESHOLD
            if self.assembly == "naive":
                self._assembler = ReferenceAssembler(self.circuit, size, sparse)
            else:
                self._assembler = build_assembler(self.circuit, size, sparse)
            self._structure_key = key
        return self._assembler

    # ------------------------------------------------------------------ #
    # public API                                                          #
    # ------------------------------------------------------------------ #

    def simulate(
        self,
        t_stop: float,
        dt: float,
        record: Optional[List[str]] = None,
        record_currents: Optional[List[str]] = None,
        *,
        adaptive: bool = False,
        lte_tol: float = 1e-4,
        dt_min: Optional[float] = None,
        dt_max: Optional[float] = None,
        breakpoints: Optional[Sequence[float]] = None,
        initial_overrides: Optional[Dict[str, float]] = None,
    ) -> TransientResult:
        """Simulate from 0 to ``t_stop`` and return dense-sampled waveforms.

        Args:
            t_stop: end time in seconds.
            dt: time step in seconds.  For fixed-step runs this is the
                integration step; for adaptive runs it is the initial
                step and the uniform grid the result is sampled on.
            record: node names to record; defaults to every node.
            record_currents: voltage-source names whose branch currents
                to record (for power/energy measurement).
            adaptive: enable local-truncation-error step control.  The
                step grows and shrinks between ``dt_min`` and ``dt_max``
                and always lands exactly on source breakpoints; the
                trajectory is resampled onto the uniform ``dt`` grid so
                downstream consumers see the same result shape.
            lte_tol: adaptive only — accepted per-step truncation error
                on node voltages (volts).
            dt_min: adaptive only — smallest controller step (default
                ``dt / 16``).  Newton-failure halving may go below this,
                down to ``dt_min / 2**MAX_SUBDIVISIONS``.
            dt_max: adaptive only — largest step (default ``32 * dt``).
            breakpoints: extra times the adaptive stepper must land on,
                merged with the breakpoints harvested from every source
                waveform's ``breakpoints`` attribute.
            initial_overrides: node-name → voltage overrides applied on
                top of the netlist initial conditions.  Lets one compiled
                session sweep starting states (e.g. cell voltage vs
                retention time) without touching the circuit.

        Returns:
            A :class:`TransientResult` with one sample per ``dt`` from 0
            to ``t_stop`` inclusive, with :attr:`TransientResult.stats`
            populated.
        """
        if t_stop <= 0 or dt <= 0:
            raise ValueError(f"t_stop and dt must be positive, got {t_stop}, {dt}")
        assembler = self._ensure_compiled()
        size = assembler.size

        x = self.circuit.initial_state(size)
        if initial_overrides:
            for node, value in initial_overrides.items():
                idx = self.circuit.node_id(node)
                if idx < 0:
                    raise KeyError(f"cannot override ground node: {node}")
                x[idx] = float(value)

        record_nodes = record if record is not None else self.circuit.node_names
        indices = {node: self.circuit.node_id(node) for node in record_nodes}
        for node, idx in indices.items():
            if idx < 0:
                raise KeyError(f"cannot record ground node: {node}")

        current_indices: Dict[str, int] = {}
        if record_currents:
            from .netlist import VoltageSource

            sources = {
                e.name: e for e in self.circuit.elements if isinstance(e, VoltageSource)
            }
            for name in record_currents:
                if name not in sources:
                    raise KeyError(f"no voltage source named {name!r}")
                current_indices[name] = sources[name]._branch_index

        xp = np.zeros(size + 1)
        xp[:size] = x
        stats = SolverStats()

        if adaptive:
            return self._run_adaptive(
                assembler,
                xp,
                t_stop,
                dt,
                indices,
                current_indices,
                stats,
                lte_tol=lte_tol,
                dt_min=dt_min if dt_min is not None else dt / 16.0,
                dt_max=dt_max if dt_max is not None else 32.0 * dt,
                extra_breakpoints=breakpoints,
            )
        return self._run_fixed(assembler, xp, t_stop, dt, indices, current_indices, stats)

    # ------------------------------------------------------------------ #
    # fixed-step path (seed semantics)                                    #
    # ------------------------------------------------------------------ #

    def _run_fixed(self, assembler, xp, t_stop, dt, indices, current_indices, stats):
        """Uniform-step integration with halving-on-failure (seed behaviour)."""
        n_steps = int(round(t_stop / dt))
        times = np.empty(n_steps + 1)
        traces = {node: np.empty(n_steps + 1) for node in indices}
        current_traces = {name: np.empty(n_steps + 1) for name in current_indices}
        times[0] = 0.0
        for node, idx in indices.items():
            traces[node][0] = xp[idx]
        for name, idx in current_indices.items():
            current_traces[name][0] = -xp[idx]

        for step_index in range(1, n_steps + 1):
            t = step_index * dt
            xp = self._advance(assembler, xp, t - dt, dt, 0, stats)
            times[step_index] = t
            for node, idx in indices.items():
                traces[node][step_index] = xp[idx]
            for name, idx in current_indices.items():
                current_traces[name][step_index] = -xp[idx]

        assert_finite(traces, "circuit.solver.simulate")
        assert_finite(current_traces, "circuit.solver.simulate")
        return TransientResult(
            time=times,
            voltages=traces,
            newton_iterations=stats.newton_iterations,
            currents=current_traces,
            stats=stats,
        )

    def _advance(self, assembler, xp, t_start, dt, depth, stats):
        """Advance the state by ``dt`` from ``t_start``; subdivide on failure.

        A stiff event (sense-amp regeneration firing mid-step) can defeat
        the damped Newton iteration at the requested step; halving the
        step across the event recovers convergence.  Up to
        :data:`MAX_SUBDIVISIONS` levels of halving are attempted, then
        the gmin/source-stepping rescue ladder
        (:mod:`repro.circuit.rescue`) gets the final word.
        """
        probe = self._newton(assembler, xp, t_start + dt, dt, stats)
        if probe.solution is not None:
            stats.accepted_steps += 1
            return probe.solution
        if depth >= MAX_SUBDIVISIONS:
            xp_next = self._rescue(assembler, xp, t_start + dt, dt, stats)
            stats.accepted_steps += 1
            return xp_next
        stats.subdivisions += 1
        half = dt / 2.0
        xp_mid = self._advance(assembler, xp, t_start, half, depth + 1, stats)
        return self._advance(assembler, xp_mid, t_start + half, half, depth + 1, stats)

    def _rescue(self, assembler, xp, t, dt, stats):
        """Run the rescue ladder for a step Newton + halving could not take.

        Raises :class:`ConvergenceError` (with the attached
        :class:`~repro.circuit.rescue.ConvergenceReport`) when both
        ladders are exhausted.
        """

        def newton(xp_start, gshunt, source_scale):
            return self._newton(
                assembler, xp_start, t, dt, stats,
                gshunt=gshunt, source_scale=source_scale,
            )

        solution, report = run_rescue(
            newton,
            xp,
            netlist=self.circuit.name,
            t=t,
            dt=dt,
            node_names=self.circuit.node_names,
            subdivisions=MAX_SUBDIVISIONS,
        )
        stats.rescues += 1
        stats.rescue_reports.append(report)
        return solution

    # ------------------------------------------------------------------ #
    # adaptive path                                                       #
    # ------------------------------------------------------------------ #

    def _harvest_breakpoints(self, t_stop, extra):
        """Slope-discontinuity times from source waveforms (plus extras)."""
        points = set()
        for el in self.circuit.elements:
            wave = getattr(el, "waveform", None)
            for b in getattr(wave, "breakpoints", ()) or ():
                if 0.0 < b < t_stop:
                    points.add(float(b))
        for b in extra or ():
            if 0.0 < b < t_stop:
                points.add(float(b))
        return deque(sorted(points))

    def _run_adaptive(
        self,
        assembler,
        xp,
        t_stop,
        dt_init,
        indices,
        current_indices,
        stats,
        *,
        lte_tol,
        dt_min,
        dt_max,
        extra_breakpoints,
    ):
        """LTE-controlled variable-step integration, resampled onto ``dt_init``.

        Backward Euler's local truncation error is estimated by comparing
        the implicit solution against a linear extrapolation of the two
        previous accepted states (a first-order predictor): for exact
        first-order behaviour the two agree, so their gap scaled by
        ``dt / (dt + dt_prev)`` tracks the ``O(dt^2)`` error term.  Steps
        whose estimate exceeds ``lte_tol`` are rejected and retried
        smaller; accepted steps grow the step by up to 2x.  The predictor
        history is reset across source breakpoints, where extrapolating a
        discontinuous slope would poison the estimate.
        """
        n_nodes = assembler.n_nodes
        dt_floor = dt_min / (2.0**MAX_SUBDIVISIONS)
        bps = self._harvest_breakpoints(t_stop, extra_breakpoints)
        t_eps = max(1e-18, 1e-12 * t_stop)

        ts = [0.0]
        samples = {node: [xp[idx]] for node, idx in indices.items()}
        current_samples = {name: [-xp[idx]] for name, idx in current_indices.items()}

        t = 0.0
        dt = min(max(dt_init, dt_min), dt_max)
        xp_hist: Optional[np.ndarray] = None
        dt_hist: Optional[float] = None

        while t_stop - t > t_eps:
            while bps and bps[0] - t < max(dt_floor, t_eps):
                bps.popleft()
            dt_try = min(dt, t_stop - t)
            at_break = False
            if bps and bps[0] <= t + dt_try:
                dt_try = bps[0] - t
                at_break = True

            probe = self._newton(assembler, xp, t + dt_try, dt_try, stats)
            xp_new = probe.solution
            rescued = False
            if xp_new is None:
                stats.subdivisions += 1
                dt = dt_try / 2.0
                if dt >= dt_floor:
                    continue
                # Halving is exhausted: the rescue ladder either saves
                # the step at dt_try or raises with the full report.
                xp_new = self._rescue(assembler, xp, t + dt_try, dt_try, stats)
                rescued = True

            if rescued:
                # A rescued state was reached through a deformed-system
                # continuation; an LTE estimate extrapolated across it
                # is meaningless, so accept and restart the predictor.
                dt_next = dt_try
            elif xp_hist is not None:
                pred = xp + (xp - xp_hist) * (dt_try / dt_hist)
                gap = float(np.max(np.abs(xp_new[:n_nodes] - pred[:n_nodes]))) if n_nodes else 0.0
                err = gap * dt_try / (dt_try + dt_hist)
                if err > lte_tol and dt_try > dt_min * (1.0 + 1e-9):
                    stats.rejected_steps += 1
                    shrink = max(_SHRINK_MIN, _SAFETY * math.sqrt(lte_tol / err))
                    dt = max(dt_try * shrink, dt_min)
                    continue
                grow = _SAFETY * math.sqrt(lte_tol / max(err, 1e-300))
                dt_next = dt_try * min(max(grow, _SHRINK_MIN), _GROW_MAX)
            else:
                dt_next = dt_try

            stats.accepted_steps += 1
            xp_hist = xp
            dt_hist = dt_try
            xp = xp_new
            t += dt_try
            ts.append(t)
            for node, idx in indices.items():
                samples[node].append(xp[idx])
            for name, idx in current_indices.items():
                current_samples[name].append(-xp[idx])

            if at_break or rescued:
                # Source slope just changed (or the state came from a
                # rescue continuation): a predictor spanning the
                # discontinuity is meaningless, and a large step would
                # smear the event — restart both.
                xp_hist = None
                dt_hist = None
                dt = min(dt_init, dt_max)
            else:
                dt = min(max(dt_next, dt_min), dt_max)

        # Resample onto the uniform grid the fixed-step path would use.
        n_steps = int(round(t_stop / dt_init))
        grid = np.arange(n_steps + 1) * dt_init
        ts_arr = np.asarray(ts)
        traces = {
            node: np.interp(grid, ts_arr, np.asarray(vals)) for node, vals in samples.items()
        }
        current_traces = {
            name: np.interp(grid, ts_arr, np.asarray(vals))
            for name, vals in current_samples.items()
        }
        assert_finite(traces, "circuit.solver.simulate")
        assert_finite(current_traces, "circuit.solver.simulate")
        return TransientResult(
            time=grid,
            voltages=traces,
            newton_iterations=stats.newton_iterations,
            currents=current_traces,
            stats=stats,
        )

    # ------------------------------------------------------------------ #
    # Newton iteration                                                    #
    # ------------------------------------------------------------------ #

    def _newton(
        self, assembler, xp, t, dt, stats, gshunt=0.0, source_scale=1.0
    ) -> NewtonProbe:
        """One backward-Euler step via damped Newton.

        Semantics match the seed solver exactly: the update norm is taken
        over node voltages only, steps larger than 0.5 V are damped, and
        convergence is declared when the undamped update drops below
        ``abstol``.  The returned :class:`NewtonProbe` carries the
        solution (or ``None``), iteration count, last residual, and
        worst node — the telemetry the rescue ladder records per rung.
        A singular system is reported as a failed probe rather than
        raised, so rescue deformation gets a chance to cure it.

        ``gshunt``/``source_scale`` pass through to the assembler; at
        their defaults the assembled system is bit-identical to the
        pre-rescue solver's.
        """
        size, n_nodes = assembler.size, assembler.n_nodes
        delta = 0.0
        worst = -1
        iters = 0
        try:
            iterate = assembler.prepare_step(
                xp, t, dt, stats, gshunt=gshunt, source_scale=source_scale
            )
            xp_new = xp.copy()
            for _ in range(self.max_newton):
                x_next = iterate(xp_new)
                if n_nodes:
                    diff = np.abs(x_next[:n_nodes] - xp_new[:n_nodes])
                    worst = int(np.argmax(diff))
                    delta = float(diff[worst])
                else:
                    delta = 0.0
                # Damp large Newton steps to keep square-law devices in a
                # sane region; undamped steps can overshoot by rails.
                if delta > _MAX_NEWTON_STEP:
                    xp_new[:size] += (x_next - xp_new[:size]) * (_MAX_NEWTON_STEP / delta)
                else:
                    xp_new[:size] = x_next
                stats.newton_iterations += 1
                iters += 1
                if delta < self.abstol:
                    return NewtonProbe(xp_new, iters, delta, worst)
            return NewtonProbe(None, iters, delta, worst)
        except SingularSystemError as exc:
            return NewtonProbe(None, iters, delta, worst, singular=str(exc))
