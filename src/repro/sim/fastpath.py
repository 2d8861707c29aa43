"""Exact vectorized evaluator of refresh overhead for full-length traces.

The cycle-level engine walks every demand request; for the Fig. 4 sweep
(a dozen benchmarks x several policies x seconds of simulated time) that
is needlessly slow, because refresh accounting only depends on *which
rows were accessed in which refresh interval*, never on how many times
or exactly when within the interval (an extra ``on_access`` reset of an
already-reset counter is a no-op).

:class:`RefreshOverheadEvaluator` prices each policy on one of two
paths, chosen by the policy itself:

* the **fused timeline** serves every policy whose
  :meth:`~repro.controller.refresh.RefreshPolicy.supports_fused_timeline`
  is True (every built-in one) —
  :class:`~repro.sim.timeline.FusedTimeline` prices all deadline
  crossings of the horizon in one batched kernel call, with zero
  Python-level loops, and a failure there raises to the caller;
* the **round walk** (:func:`round_walk`) serves the rest: policies
  that customize only the scalar ``refresh_row`` / ``on_access``
  methods, such as ``vrl-temp`` in ``examples/custom_policy.py``.  It
  walks scheduling *rounds*: round ``k`` gathers every row whose
  ``k``-th deadline falls before the horizon, applies at most one
  batched ``on_access_rows`` for the rows that were accessed in that
  interval (computed with one ``searchsorted`` per accessed row), and
  takes the whole round's refresh decisions with one ``decide`` call,
  whose kernel entry points fall back to looping the scalar methods
  (see :mod:`repro.controller.refresh`).  Tests call it directly as
  the fused timeline's oracle.

Per row, the (access?, decide) sequence of both paths is identical to
the scalar walk — policy state is strictly per-row, so the refresh
statistics are bit-identical to the engine's; the integration tests and
the differential harness (``tests/test_differential_engine_fastpath.py``)
assert this against :class:`~repro.sim.engine.BankSimulator`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..controller.refresh import RefreshPolicy
from .schedule import deadline_counts, first_deadlines, period_cycles, row_deadlines
from .stats import RefreshStats
from .timeline import FusedTimeline
from .timing import DRAMTiming
from .trace import MemoryTrace, StreamedTrace

__all__ = ["RefreshOverheadEvaluator", "round_walk"]


class RefreshOverheadEvaluator:
    """Bank-vectorized refresh-overhead evaluation via the policy kernel.

    Args:
        policy: refresh policy to drive.  Policies that support the
            fused timeline are priced by it; the others by
            :func:`round_walk`.
        timing: command timings (sets the tREFI-staggered deadlines and
            the cycle clock).
    """

    def __init__(self, policy: RefreshPolicy, timing: DRAMTiming):
        self.policy = policy
        self.timing = timing
        self._fused = policy.supports_fused_timeline()
        self._timeline: Optional[FusedTimeline] = None

    @property
    def backend(self) -> str:
        """The pricing path: ``"fused"`` or ``"loop"`` (the round walk)."""
        return "fused" if self._fused else "loop"

    @property
    def timeline(self) -> Optional[FusedTimeline]:
        """The compiled fused timeline (``None`` on the round walk).

        Built lazily on first use and reused across evaluations, so the
        schedule compilation is paid once per evaluator.
        """
        if not self._fused:
            return None
        if self._timeline is None:
            self._timeline = FusedTimeline(self.policy, self.timing)
        return self._timeline

    @property
    def reads_trace(self) -> bool:
        """Can a demand trace change what :meth:`evaluate` returns?

        On the fused timeline only access-coupled policies
        (``timeline_spec().resets_on_access``) read the trace; for every
        other policy ``evaluate(d, trace)`` equals ``evaluate(d, None)``,
        so callers may skip building the trace.  The round walk is
        conservatively ``True``: it drives the policy's own access hooks.
        """
        if not self._fused:
            return True
        return self.policy.timeline_spec().resets_on_access

    def evaluate(
        self,
        duration_cycles: int,
        trace: Optional[Union[MemoryTrace, StreamedTrace]] = None,
    ) -> RefreshStats:
        """Refresh statistics over ``duration_cycles`` of simulated time.

        Both paths return bit-identical statistics (the differential
        harness pins this).

        Args:
            duration_cycles: simulation horizon; refreshes due at or
                after it are not issued (same convention as the engine).
            trace: demand accesses (only their (row, cycle) structure is
                used).  A :class:`~repro.sim.trace.StreamedTrace` is for
                the fused timeline only: the round walk needs a
                :class:`~repro.sim.trace.MemoryTrace`.
        """
        timeline = self.timeline
        if timeline is None:
            if isinstance(trace, StreamedTrace):
                raise TypeError(
                    f"policy {self.policy.name!r} is priced by the round walk, "
                    "which needs a MemoryTrace, not a StreamedTrace"
                )
            return round_walk(self.policy, self.timing, duration_cycles, trace)
        return timeline.evaluate(duration_cycles, trace)


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

    The path for policies whose customization the closed-form timeline
    cannot represent, and the reference oracle the fused timeline is
    differentially tested against.  Takes the same arguments as
    :meth:`RefreshOverheadEvaluator.evaluate` plus the policy and
    timing, and resets the policy first.
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
