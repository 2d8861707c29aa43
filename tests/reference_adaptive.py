"""The scalar adaptive step controller: the oracle of the one-lane run.

:func:`reference_adaptive` is the single-lane LTE controller the
library ran for ``CircuitSession.simulate(adaptive=True)`` before one
controller, :meth:`~repro.circuit.solver.CircuitSession._run_adaptive`,
came to step both one lane and a batch.  It walks one 1-D state with the
session's own ``_newton``, ``_rescue`` and breakpoint harvest, appends
one value per recorded node and step, and resamples the lists onto the
uniform grid.  The library's one-lane run
must equal it bit for bit: every waveform, every recorded current and
``SolverStats.summary()`` (:func:`assert_same_run`).

The solver constants are read from :mod:`repro.circuit.solver` at call
time, so a test that patches them (the ``starved_newton`` fixture)
patches the oracle too.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.circuit import CircuitSession, solver
from repro.circuit.netlist import VoltageSource
from repro.circuit.solver import SolverStats, TransientResult


def reference_adaptive(
    session: CircuitSession,
    t_stop: float,
    dt: float,
    record: Optional[List[str]] = None,
    record_currents: Optional[List[str]] = None,
    initial_overrides: Optional[Dict[str, float]] = None,
) -> TransientResult:
    """``session.simulate(t_stop, dt, ..., adaptive=True)`` by the scalar loop."""
    circuit = session.circuit
    assembler = session.assembler
    size = assembler.size
    xp = np.zeros(size + 1)
    xp[:size] = circuit.initial_state(size)
    for node, value in (initial_overrides or {}).items():
        xp[circuit.node_id(node)] = float(value)
    record_nodes = record if record is not None else circuit.node_names
    indices = {node: circuit.node_id(node) for node in record_nodes}
    sources = {e.name: e for e in circuit.elements if isinstance(e, VoltageSource)}
    current_indices = {name: sources[name]._branch_index for name in record_currents or ()}
    stats = SolverStats()

    n_nodes = assembler.n_nodes
    dt_min = dt / solver.DT_MIN_DIVISOR
    dt_max = solver.DT_MAX_FACTOR * dt
    dt_floor = dt_min / (2.0**solver.MAX_SUBDIVISIONS)
    bps = session._harvest_breakpoints(t_stop)
    t_eps = max(1e-18, 1e-12 * t_stop)

    ts = [0.0]
    samples = {node: [xp[idx]] for node, idx in indices.items()}
    current_samples = {name: [-xp[idx]] for name, idx in current_indices.items()}

    t = 0.0
    step = dt
    xp_hist: Optional[np.ndarray] = None
    dt_hist: Optional[float] = None

    while t_stop - t > t_eps:
        while bps and bps[0] - t < max(dt_floor, t_eps):
            bps.popleft()
        dt_try = min(step, t_stop - t)
        at_break = False
        if bps and bps[0] <= t + dt_try:
            dt_try = bps[0] - t
            at_break = True

        xp_new = session._newton(assembler, xp, t + dt_try, dt_try, stats).solution
        rescued = False
        if xp_new is None:
            stats.subdivisions += 1
            step = dt_try / 2.0
            if step >= dt_floor:
                continue
            xp_new = session._rescue(assembler, xp, t + dt_try, dt_try, stats)
            rescued = True

        if rescued:
            dt_next = dt_try
        elif xp_hist is not None:
            pred = xp + (xp - xp_hist) * (dt_try / dt_hist)
            gap = float(np.max(np.abs(xp_new[:n_nodes] - pred[:n_nodes]))) if n_nodes else 0.0
            err = gap * dt_try / (dt_try + dt_hist)
            if err > solver.LTE_TOL and dt_try > dt_min * (1.0 + 1e-9):
                stats.rejected_steps += 1
                shrink = max(solver._SHRINK_MIN, solver._SAFETY * math.sqrt(solver.LTE_TOL / err))
                step = max(dt_try * shrink, dt_min)
                continue
            grow = solver._SAFETY * math.sqrt(solver.LTE_TOL / max(err, 1e-300))
            dt_next = dt_try * min(max(grow, solver._SHRINK_MIN), solver._GROW_MAX)
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
            xp_hist = None
            dt_hist = None
            step = dt
        else:
            step = min(max(dt_next, dt_min), dt_max)

    grid = np.arange(int(round(t_stop / dt)) + 1) * dt
    ts_arr = np.asarray(ts)
    return TransientResult(
        time=grid,
        voltages={
            node: np.interp(grid, ts_arr, np.asarray(vals)) for node, vals in samples.items()
        },
        newton_iterations=stats.newton_iterations,
        currents={
            name: np.interp(grid, ts_arr, np.asarray(vals))
            for name, vals in current_samples.items()
        },
        stats=stats,
    )


def assert_same_run(result: TransientResult, oracle: TransientResult) -> None:
    """Same grid, waveforms and currents byte for byte, and the same stats."""
    assert result.time.tobytes() == oracle.time.tobytes()
    assert result.nodes == oracle.nodes and list(result.currents) == list(oracle.currents)
    for node in oracle.nodes:
        np.testing.assert_array_equal(result[node], oracle[node], err_msg=node)
        assert result[node].tobytes() == oracle[node].tobytes(), node
    for name, wave in oracle.currents.items():
        assert result.current(name).tobytes() == wave.tobytes(), name
    assert result.stats.summary() == oracle.stats.summary()
