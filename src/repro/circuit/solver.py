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
* **adaptive**: local-truncation-error step control (:data:`LTE_TOL`)
  that grows and shrinks ``dt`` between ``dt / DT_MIN_DIVISOR`` and
  ``DT_MAX_FACTOR * dt``, lands exactly on source breakpoints, and falls
  back to the same halving on Newton failure.
  Results are resampled onto the uniform ``dt`` grid so
  :class:`TransientResult` consumers are unchanged.  One controller
  steps any number of lanes in lockstep: ``simulate(adaptive=True)``
  runs it on one lane with the scalar Newton iteration, and
  :class:`~repro.circuit.batched.BatchedCircuitSession` on ``L`` lanes
  with its batched Newton round.

When halving cannot save a step, the solver escalates through the
gmin/source-stepping rescue ladder (:mod:`repro.circuit.rescue`) before
giving up; rescued steps and their :class:`ConvergenceReport` records
land on the run's stats, and a final failure raises
:class:`ConvergenceError` carrying the same report.

Every run returns :class:`SolverStats` telemetry (Newton iterations,
factorizations, accepted/rejected steps, subdivisions, rescues).

Circuits are built from the library elements of
:mod:`repro.circuit.netlist`; a session refuses, with a ``TypeError``,
to compile an element that overrides the library ``stamp`` arithmetic.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..guard import assert_finite
from .compiled import SingularSystemError, build_assembler
from .netlist import Circuit, VoltageSource
from .rescue import (  # noqa: F401  (ConvergenceError re-exported for back-compat)
    ConvergenceError,
    ConvergenceReport,
    NewtonProbe,
    run_rescue,
)

#: Maximum levels of automatic time-step halving on Newton failure.
MAX_SUBDIVISIONS = 8

#: Newton convergence tolerance on node voltages (volts): a step has
#: converged once the undamped update drops below it.
NEWTON_ABSTOL = 1e-6

#: Newton iterations per time point before the step counts as failed
#: (and is halved, then rescued).
MAX_NEWTON_ITERATIONS = 60

#: Adaptive control: accepted per-step local truncation error on node
#: voltages (volts).
LTE_TOL = 1e-4

#: Adaptive control: the step stays within ``[dt / DT_MIN_DIVISOR,
#: DT_MAX_FACTOR * dt]`` of the requested ``dt``; Newton-failure halving
#: may go below the floor, by up to ``2**MAX_SUBDIVISIONS``.
DT_MIN_DIVISOR = 16.0
DT_MAX_FACTOR = 32.0

#: Newton damping: cap on the per-iteration node-voltage update (volts).
_MAX_NEWTON_STEP = 0.5

#: Adaptive control: growth-factor bounds and safety margin.
_GROW_MAX = 2.0
_SHRINK_MIN = 0.2
_SAFETY = 0.9

#: A one-lane Newton round's ``converged`` mask (read-only, shared).
_LANE_CONVERGED = np.ones(1, dtype=bool)
_LANE_FAILED = np.zeros(1, dtype=bool)
_LANE_CONVERGED.flags.writeable = _LANE_FAILED.flags.writeable = False


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


def _resample(ts, samples, t_stop, dt):
    """Interpolate accepted-step samples onto the uniform ``dt`` grid.

    ``samples`` is ``(len(ts), L, C)`` as :meth:`CircuitSession._run_adaptive`
    returns it; the result is ``(grid, waves)`` with ``waves[c, lane]``
    one column of one lane on the grid, from 0 to ``t_stop``.
    """
    grid = np.arange(int(round(t_stop / dt)) + 1) * dt
    ts = np.asarray(ts)
    _, n_lanes, n_cols = samples.shape
    waves = np.empty((n_cols, n_lanes, len(grid)))
    for col in range(n_cols):
        for lane in range(n_lanes):
            waves[col, lane] = np.interp(grid, ts, samples[:, lane, col])
    return grid, waves


class CircuitSession:
    """Compiled transient-analysis session over one :class:`Circuit`.

    Compiles the circuit's MNA structure on first use and reuses it for
    every subsequent :meth:`simulate` call — sweeps that re-simulate the
    same netlist with different stop times, step sizes, or initial
    conditions (e.g. the MPRSF retention sweep) pay the stamping walk
    once instead of once per Newton iteration per run.

    The session assumes the circuit is structurally frozen: if elements
    are added or removed the session recompiles automatically, but
    in-place mutation of element *values* (a resistance, a waveform)
    requires an explicit :meth:`recompile`.

    Newton runs to :data:`NEWTON_ABSTOL` within
    :data:`MAX_NEWTON_ITERATIONS` iterations per time point.

    Args:
        circuit: the netlist to simulate, of library elements only
            (compiling raises ``TypeError`` on an element with custom
            ``stamp`` arithmetic).
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._assembler = None
        self._structure_key: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ #
    # compilation                                                         #
    # ------------------------------------------------------------------ #

    @property
    def assembler(self):
        """The compiled assembler, building it if needed."""
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
            self._assembler = build_assembler(self.circuit, size)
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
            adaptive: enable local-truncation-error step control.  Each
                step keeps its truncation error under :data:`LTE_TOL`,
                grows and shrinks between ``dt / DT_MIN_DIVISOR`` and
                ``DT_MAX_FACTOR * dt``, and lands exactly on the
                breakpoints of every source waveform; the trajectory is
                resampled onto the uniform ``dt`` grid so downstream
                consumers see the same result shape.
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

        XP = self._initial_states(size, initial_overrides or {})
        indices = self._recorded(record)
        sources = {e.name: e for e in self.circuit.elements if isinstance(e, VoltageSource)}
        current_indices: Dict[str, int] = {}
        for name in record_currents or ():
            if name not in sources:
                raise KeyError(f"no voltage source named {name!r}")
            current_indices[name] = sources[name]._branch_index

        stats = SolverStats()
        if adaptive:
            cols = [*indices.values(), *current_indices.values()]
            ts, samples = self._run_adaptive(
                self._newton_lane, assembler, XP, t_stop, dt, cols, stats
            )
            currents = samples[:, :, len(indices):]
            np.negative(currents, out=currents)
            times, waves = _resample(ts, samples, t_stop, dt)
            traces = dict(zip(indices, waves[:len(indices), 0]))
            current_traces = dict(zip(current_indices, waves[len(indices):, 0]))
        else:
            times, traces, current_traces = self._run_fixed(
                assembler, XP[0], t_stop, dt, indices, current_indices, stats
            )
        assert_finite(traces, "circuit.solver.simulate")
        assert_finite(current_traces, "circuit.solver.simulate")
        return TransientResult(
            time=times,
            voltages=traces,
            newton_iterations=stats.newton_iterations,
            currents=current_traces,
            stats=stats,
        )

    def _initial_states(self, size, overrides, n_lanes=1):
        """Padded ``(L, size + 1)`` initial states: the netlist initial
        conditions with ``overrides`` (node → a value, or ``(L,)``
        values) on top."""
        XP = np.zeros((n_lanes, size + 1))
        XP[:, :size] = self.circuit.initial_state(size)
        for node, values in overrides.items():
            idx = self.circuit.node_id(node)
            if idx < 0:
                raise KeyError(f"cannot override ground node: {node}")
            XP[:, idx] = values
        return XP

    def _recorded(self, record):
        """Node → unknown index of each node to record (every node by default)."""
        nodes = record if record is not None else self.circuit.node_names
        indices = {node: self.circuit.node_id(node) for node in nodes}
        for node, idx in indices.items():
            if idx < 0:
                raise KeyError(f"cannot record ground node: {node}")
        return indices

    # ------------------------------------------------------------------ #
    # fixed-step path (seed semantics)                                    #
    # ------------------------------------------------------------------ #

    def _run_fixed(self, assembler, xp, t_stop, dt, indices, current_indices, stats):
        """Uniform-step integration with halving-on-failure (seed behaviour):
        ``(times, traces, current_traces)``."""
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
        return times, traces, current_traces

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

    def _harvest_breakpoints(self, t_stop):
        """Slope-discontinuity times of the source waveforms."""
        points = set()
        for el in self.circuit.elements:
            wave = getattr(el, "waveform", None)
            for b in getattr(wave, "breakpoints", ()) or ():
                if 0.0 < b < t_stop:
                    points.add(float(b))
        return deque(sorted(points))

    def _run_adaptive(self, newton_round, assembler, XP, t_stop, dt_init, cols, stats):
        """LTE-controlled variable-step integration of ``L`` lanes in lockstep.

        ``XP`` holds one padded state per lane, ``(L, size + 1)``, and
        ``newton_round(assembler, XP, t, dt, stats)`` takes every lane one
        backward-Euler step, returning ``(XP_new, converged)``.  The local
        truncation error is the gap between the implicit solution and a
        linear extrapolation of the two previous accepted states, scaled
        by ``dt / (dt + dt_prev)`` (it tracks the ``O(dt^2)`` term); the
        worst lane and node size one shared step.  Steps over
        :data:`LTE_TOL` are retried smaller, accepted ones grow by up to
        2x, and the predictor restarts across source breakpoints.  When
        every lane fails Newton the step halves down to its floor, then
        each lane is rescued at the step it failed; when only some fail,
        each failed lane is advanced alone through :meth:`_advance`.

        Returns:
            ``(ts, samples)``: the accepted times and the ``cols`` columns
            of the states at each, ``(len(ts), L, len(cols))``.
        """
        n_nodes = assembler.n_nodes
        n_lanes = XP.shape[0]
        dt_min = dt_init / DT_MIN_DIVISOR
        dt_max = DT_MAX_FACTOR * dt_init
        dt_floor = dt_min / (2.0**MAX_SUBDIVISIONS)
        bps = self._harvest_breakpoints(t_stop)
        t_eps = max(1e-18, 1e-12 * t_stop)

        cols = np.asarray(cols, dtype=np.intp)
        ts = [0.0]
        samples = [XP[:, cols]]

        t = 0.0
        dt = dt_init  # within [dt_min, dt_max] by construction
        XP_hist: Optional[np.ndarray] = None
        dt_hist: Optional[float] = None

        while t_stop - t > t_eps:
            while bps and bps[0] - t < max(dt_floor, t_eps):
                bps.popleft()
            dt_try = min(dt, t_stop - t)
            at_break = False
            if bps and bps[0] <= t + dt_try:
                dt_try = bps[0] - t
                at_break = True

            XP_new, converged = newton_round(assembler, XP, t + dt_try, dt_try, stats)
            accepted = int(np.count_nonzero(converged))
            rescued = accepted < n_lanes
            if rescued and accepted:
                # Healthy lanes keep their solutions; each failed one is
                # halved and rescued alone at this exact step, so the
                # batch stays in lockstep.
                for lane in np.flatnonzero(~converged):
                    XP_new[lane] = self._advance(
                        assembler, XP[lane].copy(), t, dt_try, 0, stats
                    )
            elif rescued:
                stats.subdivisions += 1
                dt = dt_try / 2.0
                if dt >= dt_floor:
                    continue
                # Halving is exhausted: the rescue ladder either saves
                # each lane at dt_try or raises with the full report.
                XP_new = np.stack(
                    [self._rescue(assembler, xp, t + dt_try, dt_try, stats) for xp in XP]
                )
                accepted = n_lanes

            if rescued:
                # A rescued state was reached through a deformed-system
                # continuation; an LTE estimate extrapolated across it
                # is meaningless, so accept and restart the predictor.
                dt_next = dt_try
            elif XP_hist is not None:
                pred = XP + (XP - XP_hist) * (dt_try / dt_hist)
                gap = (
                    float(np.max(np.abs(XP_new[:, :n_nodes] - pred[:, :n_nodes])))
                    if n_nodes
                    else 0.0
                )
                err = gap * dt_try / (dt_try + dt_hist)
                if err > LTE_TOL and dt_try > dt_min * (1.0 + 1e-9):
                    stats.rejected_steps += n_lanes
                    shrink = max(_SHRINK_MIN, _SAFETY * math.sqrt(LTE_TOL / err))
                    dt = max(dt_try * shrink, dt_min)
                    continue
                grow = _SAFETY * math.sqrt(LTE_TOL / max(err, 1e-300))
                dt_next = dt_try * min(max(grow, _SHRINK_MIN), _GROW_MAX)
            else:
                dt_next = dt_try

            stats.accepted_steps += accepted
            XP_hist = XP
            dt_hist = dt_try
            XP = XP_new
            t += dt_try
            ts.append(t)
            samples.append(XP[:, cols])

            if at_break or rescued:
                # Source slope just changed (or the state came from a
                # rescue continuation): a predictor spanning the
                # discontinuity is meaningless, and a large step would
                # smear the event — restart both.
                XP_hist = None
                dt_hist = None
                dt = dt_init
            else:
                dt = min(max(dt_next, dt_min), dt_max)
        return ts, np.stack(samples)

    def _newton_lane(self, assembler, XP, t, dt, stats):
        """:meth:`_newton` on a one-lane state, as a Newton round for
        :meth:`_run_adaptive`: ``(XP_new, converged)``."""
        solution = self._newton(assembler, XP[0], t, dt, stats).solution
        if solution is None:
            return XP, _LANE_FAILED
        return solution[None], _LANE_CONVERGED

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
        :data:`NEWTON_ABSTOL`.  The returned :class:`NewtonProbe` carries the
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
            for _ in range(MAX_NEWTON_ITERATIONS):
                x_next = iterate(xp_new)
                if n_nodes:
                    diff = np.abs(x_next[:n_nodes] - xp_new[:n_nodes])
                    worst = int(diff.argmax())
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
                if delta < NEWTON_ABSTOL:
                    return NewtonProbe(xp_new, iters, delta, worst)
            return NewtonProbe(None, iters, delta, worst)
        except SingularSystemError as exc:
            return NewtonProbe(None, iters, delta, worst, singular=str(exc))
