"""Round-by-round walk of a policy's kernel hooks: the fused timeline's oracle.

:func:`round_walk` prices a refresh-only or trace-driven horizon without
the closed form: it walks scheduling *rounds* — round ``k`` gathers
every row whose ``k``-th deadline falls before the horizon — applies at
most one batched ``on_access_rows`` for the rows accessed in that
interval (one ``searchsorted`` per accessed row), and takes the whole
round's refresh decisions with one ``decide`` call.  A policy's state
is strictly per row, so its statistics and counter end state must equal
:class:`repro.sim.fastpath.RefreshOverheadEvaluator`'s, which prices the
policy's :class:`~repro.controller.refresh.TimelineSpec` (architecture
invariant 11).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.controller.refresh import RefreshPolicy
from repro.sim.schedule import deadline_counts, first_deadlines, period_cycles, row_deadlines
from repro.sim.stats import RefreshStats
from repro.sim.timing import DRAMTiming
from repro.sim.trace import MemoryTrace

__all__ = ["round_walk"]


def _accesses_by_row(trace: Optional[MemoryTrace]) -> dict[int, np.ndarray]:
    """Sorted access-cycle arrays keyed by row (empty without a trace)."""
    if trace is None or len(trace) == 0:
        return {}
    order = np.argsort(trace.rows, kind="stable")
    rows_sorted = trace.rows[order]
    cycles_sorted = trace.cycles[order]
    boundaries = np.nonzero(np.diff(rows_sorted))[0] + 1
    groups = np.split(np.arange(len(rows_sorted)), boundaries)
    out: dict[int, np.ndarray] = {}
    for group in groups:
        if len(group) == 0:
            continue
        row = int(rows_sorted[group[0]])
        # Stable sort keeps trace order, and trace cycles are
        # non-decreasing, so each group is already sorted by cycle.
        out[row] = cycles_sorted[group]
    return out


def _access_rounds(
    trace: Optional[MemoryTrace],
    first: np.ndarray,
    periods: np.ndarray,
    counts: np.ndarray,
    duration_cycles: int,
    max_rounds: int,
) -> Optional[np.ndarray]:
    """Boolean (rows, rounds) matrix: interval ``k`` of a row saw an access.

    An access at cycle ``c`` affects the first deadline due strictly
    after ``c`` (refresh wins ties); entry ``[r, k]`` is therefore
    "at least one access to ``r`` landed strictly before its
    ``k``-th deadline and at/after its ``(k-1)``-th".  ``None``
    when the trace carries no accesses.
    """
    accesses = _accesses_by_row(trace)
    if not accesses:
        return None
    n = len(first)
    had_access = np.zeros((n, max_rounds), dtype=bool)
    for row, row_accesses in accesses.items():
        if not 0 <= row < n or counts[row] == 0:
            continue
        dues = row_deadlines(int(first[row]), int(periods[row]), duration_cycles)
        # Number of accesses strictly before each deadline; an
        # increase since the previous deadline means at least one
        # access landed in the interval.
        seen = np.searchsorted(row_accesses, dues, side="left")
        had_access[row, : counts[row]] = np.diff(np.concatenate(([0], seen))) > 0
    return had_access


def round_walk(
    policy: RefreshPolicy,
    timing: DRAMTiming,
    duration_cycles: int,
    trace: Optional[MemoryTrace] = None,
) -> RefreshStats:
    """Refresh statistics from one batched ``decide`` per scheduling round.

    The reference oracle the fused timeline is differentially tested
    against.  Takes the same arguments as
    :meth:`~repro.sim.fastpath.RefreshOverheadEvaluator.evaluate` plus
    the policy and timing, and resets the policy first.
    """
    if duration_cycles <= 0:
        raise ValueError(f"duration must be positive, got {duration_cycles}")
    policy.reset()
    stats = RefreshStats(duration_cycles=duration_cycles)

    periods = period_cycles(policy, timing)
    first = first_deadlines(periods)
    counts = deadline_counts(first, periods, duration_cycles)
    max_rounds = int(counts.max(initial=0))
    if max_rounds == 0:
        return stats
    had_access = _access_rounds(
        trace, first, periods, counts, duration_cycles, max_rounds
    )

    for round_index in range(max_rounds):
        rows = np.nonzero(counts > round_index)[0]
        if had_access is not None:
            accessed = rows[had_access[rows, round_index]]
            if len(accessed):
                policy.on_access_rows(accessed)
        kinds, latencies = policy.decide(rows)
        stats.record_batch(kinds, latencies)
    return stats
