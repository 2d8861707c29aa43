"""Batched multi-lane transient solving: one MNA structure, ``L`` lanes.

The MPRSF calibration sweep re-simulates the *same* refresh netlist for
every retention point, varying only the cell's initial charge.  A
:class:`BatchedCircuitSession` exploits that: it replicates one compiled
MNA structure (:mod:`repro.circuit.compiled`) into ``L`` independent
lanes and advances them in lockstep under the session's adaptive step
controller (:meth:`~repro.circuit.solver.CircuitSession._run_adaptive`,
the one that also runs ``simulate(adaptive=True)`` on one lane) —

* per-lane initial conditions (``lane_overrides``) are the only thing
  that differs between lanes;
* each Newton round assembles and solves only the still-active lanes
  (per-lane convergence masks: converged lanes stop iterating);
* each round linearizes every lane's devices in one vectorized call and
  solves each lane with the scalar path's own LAPACK ``dgesv``;
* a lane that batched Newton cannot converge (or whose system goes
  singular) while others do falls back to the inherited scalar path for
  that one step — subdivision halving and then the gmin/source-stepping
  rescue ladder (:mod:`repro.circuit.rescue`) run *per lane*, never
  aborting or perturbing the healthy lanes.

Numerical contract (architecture invariant 14): for given lane states,
each lane of one :meth:`BatchedCircuitSession._newton_batch` round
equals :meth:`~repro.circuit.solver.CircuitSession._newton` on that lane
bit for bit, by construction — the same stamps and the same ``dgesv``
on the same system.  The lanes share one step controller (the worst lane sets the step), so
a lane of an ``L``-lane batch stays within the documented 2 mV circuit
envelope of its solo adaptive run, and a one-lane batch *is* the solo
run, stats included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..guard import assert_finite
from .solver import (
    _MAX_NEWTON_STEP,
    MAX_NEWTON_ITERATIONS,
    NEWTON_ABSTOL,
    CircuitSession,
    SolverStats,
    TransientResult,
    _resample,
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
    ) -> BatchedTransientResult:
        """Simulate ``L`` lanes of this circuit from 0 to ``t_stop``.

        The transient steps adaptively, as ``simulate(adaptive=True)``
        does: Newton to :data:`~repro.circuit.solver.NEWTON_ABSTOL`,
        steps to :data:`~repro.circuit.solver.LTE_TOL` within
        ``dt / DT_MIN_DIVISOR`` and ``DT_MAX_FACTOR * dt``, with one step
        sequence for every lane, sized by the worst lane's truncation
        error.

        Args:
            t_stop, dt, record: as in :meth:`CircuitSession.simulate`
                (``dt`` is the initial step and the output grid).
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

        indices = self._recorded(record)
        XP = self._initial_states(assembler.size, arrays, n_lanes)
        stats = SolverStats()
        ts, samples = self._run_adaptive(
            self._newton_batch, assembler, XP, t_stop, dt, list(indices.values()), stats
        )
        times, waves = _resample(ts, samples, t_stop, dt)
        traces = dict(zip(indices, waves))
        assert_finite(traces, "circuit.batched.simulate_batch")
        return BatchedTransientResult(
            time=times,
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
        return XP_new, converged

