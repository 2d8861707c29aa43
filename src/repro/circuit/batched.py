"""Batched multi-lane transient solving: one MNA structure, ``L`` lanes.

The MPRSF calibration sweep re-simulates the *same* refresh netlist for
every retention point, varying only the cell's initial charge.  A
:class:`BatchedCircuitSession` exploits that: it replicates one compiled
MNA structure (:mod:`repro.circuit.compiled`) into ``L`` independent
lanes and advances them in lockstep —

* per-lane initial conditions (``lane_overrides``) are the only thing
  that differs between lanes;
* each Newton round assembles and solves only the still-active lanes
  (per-lane convergence masks: converged lanes stop iterating);
* each round linearizes every lane's devices in one vectorized call and
  solves each lane with the scalar path's own LAPACK ``dgesv``;
  device-free circuits share a single factorization across every lane
  and step;
* a lane that batched Newton cannot converge (or whose system goes
  singular) falls back to the inherited scalar path for that one step —
  subdivision halving and then the gmin/source-stepping rescue ladder
  (:mod:`repro.circuit.rescue`) run *per lane*, never aborting or
  perturbing the healthy lanes.

Numerical contract (architecture invariant 14): with devices, each lane
of a fixed-step batch is bit-identical to a scalar
:class:`~repro.circuit.solver.CircuitSession` run of the same circuit
and overrides, by construction — the same stamps and the same ``dgesv``
on the same system.  The shared-factorization (device-free) path agrees
to machine precision.  Adaptive batches share one step controller (the
worst lane sets the step), so their lanes stay within the documented
2 mV circuit envelope of solo adaptive runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..guard import assert_finite
from .compiled import SingularSystemError
from .solver import (
    _GROW_MAX,
    _MAX_NEWTON_STEP,
    _SAFETY,
    _SHRINK_MIN,
    DT_MAX_FACTOR,
    DT_MIN_DIVISOR,
    LTE_TOL,
    MAX_NEWTON_ITERATIONS,
    MAX_SUBDIVISIONS,
    NEWTON_ABSTOL,
    CircuitSession,
    SolverStats,
    TransientResult,
)


@dataclass
class BatchedTransientResult:
    """Waveforms for ``L`` lanes simulated in lockstep.

    Index with a node name to get its ``(L, n_samples)`` voltage matrix;
    :meth:`lane` extracts one lane as an ordinary
    :class:`~repro.circuit.solver.TransientResult`.
    """

    time: np.ndarray
    voltages: Dict[str, np.ndarray]
    n_lanes: int
    newton_iterations: int = 0
    stats: Optional[SolverStats] = None

    def __getitem__(self, node: str) -> np.ndarray:
        return self.voltages[node]

    def __contains__(self, node: str) -> bool:
        return node in self.voltages

    @property
    def nodes(self) -> List[str]:
        """Node names with recorded waveforms."""
        return list(self.voltages)

    def final(self, node: str) -> np.ndarray:
        """Per-lane voltage of ``node`` at the last sample, shape ``(L,)``."""
        return self.voltages[node][:, -1]

    def lane(self, lane: int) -> TransientResult:
        """One lane's waveforms as a scalar-session-compatible result.

        The attached stats are the whole batch's (per-lane Newton
        accounting is not separable once lanes share their Newton rounds).
        """
        return TransientResult(
            time=self.time,
            voltages={node: v[lane] for node, v in self.voltages.items()},
            newton_iterations=self.newton_iterations,
            stats=self.stats,
        )


class BatchedCircuitSession(CircuitSession):
    """A :class:`~repro.circuit.solver.CircuitSession` that also advances
    ``L`` replicas of the circuit in lockstep.

    Everything a scalar session does (``simulate``, compilation caching,
    rescue) is inherited unchanged; :meth:`simulate_batch` adds the
    multi-lane transient.  The same compiled assembler backs both paths,
    so mixing scalar and batched runs on one session costs nothing
    extra.
    """

    # ------------------------------------------------------------------ #
    # public API                                                          #
    # ------------------------------------------------------------------ #

    def simulate_batch(
        self,
        t_stop: float,
        dt: float,
        record: Optional[List[str]] = None,
        *,
        lane_overrides: Dict[str, np.ndarray],
        adaptive: bool = False,
    ) -> BatchedTransientResult:
        """Simulate ``L`` lanes of this circuit from 0 to ``t_stop``.

        Args:
            t_stop, dt, record, adaptive: as in
                :meth:`CircuitSession.simulate` (Newton to
                :data:`~repro.circuit.solver.NEWTON_ABSTOL`; adaptive
                steps to :data:`~repro.circuit.solver.LTE_TOL` within
                ``dt / DT_MIN_DIVISOR`` and ``DT_MAX_FACTOR * dt``).  The
                adaptive controller is shared across lanes (one step
                sequence, sized by the worst lane's truncation error).
            lane_overrides: node name → ``(L,)`` array of per-lane
                initial voltages, applied on top of the netlist initial
                conditions.  Defines the lane count; every array must
                share it, and at least one node is required.

        Returns:
            A :class:`BatchedTransientResult` with per-node ``(L, n)``
            waveform matrices on the uniform ``dt`` grid.
        """
        if t_stop <= 0 or dt <= 0:
            raise ValueError(f"t_stop and dt must be positive, got {t_stop}, {dt}")
        if not lane_overrides:
            raise ValueError("lane_overrides must name at least one node")
        assembler = self._ensure_compiled()
        size = assembler.size

        arrays = {
            node: np.asarray(values, dtype=float).reshape(-1)
            for node, values in lane_overrides.items()
        }
        lengths = {len(a) for a in arrays.values()}
        if len(lengths) != 1:
            raise ValueError(
                f"lane_overrides arrays disagree on lane count: {sorted(lengths)}"
            )
        n_lanes = lengths.pop()
        if n_lanes == 0:
            raise ValueError("lane_overrides arrays are empty (no lanes)")

        record_nodes = record if record is not None else self.circuit.node_names
        indices = {node: self.circuit.node_id(node) for node in record_nodes}
        for node, idx in indices.items():
            if idx < 0:
                raise KeyError(f"cannot record ground node: {node}")

        x = self.circuit.initial_state(size)
        XP = np.zeros((n_lanes, size + 1))
        XP[:, :size] = x
        for node, values in arrays.items():
            idx = self.circuit.node_id(node)
            if idx < 0:
                raise KeyError(f"cannot override ground node: {node}")
            XP[:, idx] = values

        stats = SolverStats()
        if adaptive:
            return self._run_adaptive_batch(assembler, XP, t_stop, dt, indices, stats)
        return self._run_fixed_batch(assembler, XP, t_stop, dt, indices, stats)

    # ------------------------------------------------------------------ #
    # fixed-step path                                                     #
    # ------------------------------------------------------------------ #

    def _run_fixed_batch(self, assembler, XP, t_stop, dt, indices, stats):
        """Uniform-step lockstep integration of every lane."""
        n_steps = int(round(t_stop / dt))
        n_lanes = XP.shape[0]
        times = np.empty(n_steps + 1)
        traces = {node: np.empty((n_lanes, n_steps + 1)) for node in indices}
        times[0] = 0.0
        for node, idx in indices.items():
            traces[node][:, 0] = XP[:, idx]

        for step_index in range(1, n_steps + 1):
            t = step_index * dt
            XP = self._advance_batch(assembler, XP, t - dt, dt, stats)
            times[step_index] = t
            for node, idx in indices.items():
                traces[node][:, step_index] = XP[:, idx]

        assert_finite(traces, "circuit.batched.simulate_batch")
        return BatchedTransientResult(
            time=times,
            voltages=traces,
            n_lanes=n_lanes,
            newton_iterations=stats.newton_iterations,
            stats=stats,
        )

    def _advance_batch(self, assembler, XP, t_start, dt, stats):
        """One lockstep time step; failed lanes retry through scalar rescue.

        Lanes batched Newton converges are committed directly.  Each
        lane it cannot converge (stagnation or a singular system) is
        re-advanced alone via the inherited scalar
        :meth:`~CircuitSession._advance` — recursive step halving, then
        the gmin/source-stepping rescue ladder — leaving every other
        lane's state untouched.
        """
        XP_new, converged = self._newton_batch(assembler, XP, t_start + dt, dt, stats)
        stats.accepted_steps += int(np.count_nonzero(converged))
        if converged.all():
            return XP_new
        for lane in np.nonzero(~converged)[0]:
            XP_new[lane] = self._advance(
                assembler, XP[lane].copy(), t_start, dt, 0, stats
            )
        return XP_new

    # ------------------------------------------------------------------ #
    # adaptive path                                                       #
    # ------------------------------------------------------------------ #

    def _run_adaptive_batch(self, assembler, XP, t_stop, dt_init, indices, stats):
        """Shared-controller LTE stepping: one step sequence, worst lane rules.

        Identical control law to :meth:`CircuitSession._run_adaptive`
        (same predictor, growth/shrink bounds, breakpoint landing) with
        the truncation-error estimate taken as the max over lanes as
        well as nodes.  A lane that fails batched Newton at the
        controller's step is advanced alone through the scalar
        subdivision/rescue path at that same step, after which the
        predictor restarts exactly as it does for scalar rescues.
        """
        n_nodes = assembler.n_nodes
        n_lanes = XP.shape[0]
        dt_min = dt_init / DT_MIN_DIVISOR
        dt_max = DT_MAX_FACTOR * dt_init
        dt_floor = dt_min / (2.0**MAX_SUBDIVISIONS)
        bps = self._harvest_breakpoints(t_stop)
        t_eps = max(1e-18, 1e-12 * t_stop)

        ts = [0.0]
        samples = {node: [XP[:, idx].copy()] for node, idx in indices.items()}

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

            XP_new, converged = self._newton_batch(assembler, XP, t + dt_try, dt_try, stats)
            rescued = False
            if not converged.all():
                if converged.any() or dt_try / 2.0 < dt_floor:
                    # Healthy lanes keep their solutions; the failed
                    # ones go through per-lane halving/rescue at this
                    # exact step so the batch stays in lockstep.
                    for lane in np.nonzero(~converged)[0]:
                        XP_new[lane] = self._advance(
                            assembler, XP[lane].copy(), t, dt_try, 0, stats
                        )
                    stats.accepted_steps += int(np.count_nonzero(converged))
                    rescued = True
                else:
                    # Every lane failed: a stiff event hit the whole
                    # batch at once — halve the shared step and retry,
                    # exactly like the scalar controller.
                    stats.subdivisions += 1
                    dt = dt_try / 2.0
                    continue
            else:
                stats.accepted_steps += n_lanes

            if rescued:
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
                    stats.accepted_steps -= n_lanes
                    shrink = max(_SHRINK_MIN, _SAFETY * math.sqrt(LTE_TOL / err))
                    dt = max(dt_try * shrink, dt_min)
                    continue
                grow = _SAFETY * math.sqrt(LTE_TOL / max(err, 1e-300))
                dt_next = dt_try * min(max(grow, _SHRINK_MIN), _GROW_MAX)
            else:
                dt_next = dt_try

            XP_hist = XP
            dt_hist = dt_try
            XP = XP_new
            t += dt_try
            ts.append(t)
            for node, idx in indices.items():
                samples[node].append(XP[:, idx].copy())

            if at_break or rescued:
                XP_hist = None
                dt_hist = None
                dt = dt_init
            else:
                dt = min(max(dt_next, dt_min), dt_max)

        # Resample every lane onto the uniform grid.
        n_steps = int(round(t_stop / dt_init))
        grid = np.arange(n_steps + 1) * dt_init
        ts_arr = np.asarray(ts)
        traces = {}
        for node, vals in samples.items():
            stacked = np.stack(vals, axis=1)  # (L, n_accepted)
            out = np.empty((n_lanes, len(grid)))
            for lane in range(n_lanes):
                out[lane] = np.interp(grid, ts_arr, stacked[lane])
            traces[node] = out
        assert_finite(traces, "circuit.batched.simulate_batch")
        return BatchedTransientResult(
            time=grid,
            voltages=traces,
            n_lanes=n_lanes,
            newton_iterations=stats.newton_iterations,
            stats=stats,
        )

    # ------------------------------------------------------------------ #
    # batched Newton                                                      #
    # ------------------------------------------------------------------ #

    def _newton_batch(self, assembler, XP, t, dt, stats):
        """One backward-Euler step of every lane via damped Newton.

        Per-lane semantics match :meth:`CircuitSession._newton` exactly:
        update norm over node voltages only, 0.5 V damping cap, and the
        post-update convergence test.  Lanes leave the active set the
        iteration they converge (their states freeze; no further solves
        are spent on them).  Returns ``(XP_new, converged)``; a lane
        whose system went singular or which exhausted
        :data:`~repro.circuit.solver.MAX_NEWTON_ITERATIONS`
        simply reports unconverged — the caller owns the per-lane
        fallback.
        """
        size, n_nodes = assembler.size, assembler.n_nodes
        n_lanes = XP.shape[0]
        XP_new = XP.copy()
        converged = np.zeros(n_lanes, dtype=bool)
        try:
            iterate = assembler.prepare_step_batched(XP, t, dt, stats)
            active = np.arange(n_lanes)
            for _ in range(MAX_NEWTON_ITERATIONS):
                XP_active = XP_new[active]
                X_next, solved = iterate(XP_active, active)
                n_solved = int(np.count_nonzero(solved))
                stats.newton_iterations += n_solved
                if n_solved < active.size:
                    active = active[solved]
                    X_next = X_next[solved]
                    XP_active = XP_active[solved]
                    if active.size == 0:
                        break
                if n_nodes:
                    diff = np.abs(X_next[:, :n_nodes] - XP_active[:, :n_nodes])
                    delta = diff.max(axis=1)
                else:
                    delta = np.zeros(active.size)
                damp = delta > _MAX_NEWTON_STEP
                if not damp.any():
                    XP_new[active, :size] = X_next
                else:
                    idx = active[damp]
                    XP_new[idx, :size] += (X_next[damp] - XP_new[idx, :size]) * (
                        _MAX_NEWTON_STEP / delta[damp]
                    )[:, None]
                    if not damp.all():
                        XP_new[active[~damp], :size] = X_next[~damp]
                done = delta < NEWTON_ABSTOL
                converged[active[done]] = True
                active = active[~done]
                if active.size == 0:
                    break
        except SingularSystemError:
            # Assembly-level failure (e.g. a singular shared linear
            # base): every unconverged lane goes to the scalar fallback.
            pass
        return XP_new, converged

