"""Exact vectorized evaluator of refresh overhead for full-length traces.

The cycle-level engine walks every demand request; for the Fig. 4 sweep
(a dozen benchmarks x several policies x seconds of simulated time) that
is needlessly slow, because refresh accounting only depends on *which
rows were accessed in which refresh interval*, never on how many times
or exactly when within the interval (an extra ``on_access`` reset of an
already-reset counter is a no-op).

Two equivalent evaluation strategies live behind
:class:`RefreshOverheadEvaluator`:

* the **fused timeline** (the default for every built-in policy) —
  :class:`~repro.sim.timeline.FusedTimeline` prices all deadline
  crossings of the horizon in one batched kernel call, with zero
  Python-level loops;
* the **round walk** (the PR 3 fastpath, kept as a reference oracle and
  as the path for customized policies) — walk scheduling *rounds*:
  round ``k`` gathers every row whose ``k``-th deadline falls before
  the horizon, applies at most one batched ``on_access_rows`` for the
  rows that were accessed in that interval (computed with one
  ``searchsorted`` per accessed row), and takes the whole round's
  refresh decisions with one ``decide`` call.

Per row, the (access?, decide) sequence of both strategies is identical
to the scalar walk — policy state is strictly per-row, so the refresh
statistics are bit-identical to the engine's; the integration tests and
the three-way differential harness
(``tests/test_differential_engine_fastpath.py``) assert this against
:class:`~repro.sim.engine.BankSimulator`.

Policies that customize only the scalar ``refresh_row`` / ``on_access``
methods still work here: ``backend="auto"`` detects them (see
:meth:`~repro.controller.refresh.RefreshPolicy.supports_fused_timeline`)
and drives the round walk, whose kernel entry points transparently fall
back to looping the scalar methods (see
:mod:`repro.controller.refresh`).  Every other policy takes the fused
timeline, and a failure there raises to the caller.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..controller.refresh import RefreshPolicy
from .schedule import deadline_counts, first_deadlines, period_cycles, row_deadlines
from .stats import RefreshStats
from .timeline import FusedTimeline
from .timing import DRAMTiming
from .trace import MemoryTrace

#: Evaluation strategies of :class:`RefreshOverheadEvaluator`.
EVALUATOR_BACKENDS = ("auto", "fused", "loop")


class RefreshOverheadEvaluator:
    """Bank-vectorized refresh-overhead evaluation via the policy kernel.

    Args:
        policy: refresh policy to drive.
        timing: command timings (sets the tREFI-staggered deadlines and
            the cycle clock).
        backend: ``"auto"`` routes supported policies through the fused
            timeline and everything else through the round walk;
            ``"fused"`` forces the fused timeline and raises for
            unsupported policies; ``"loop"`` forces the round walk (the
            differential oracle).
    """

    def __init__(
        self,
        policy: RefreshPolicy,
        timing: DRAMTiming,
        backend: str = "auto",
    ):
        if backend not in EVALUATOR_BACKENDS:
            raise ValueError(
                f"backend must be one of {EVALUATOR_BACKENDS}, got {backend!r}"
            )
        self.policy = policy
        self.timing = timing
        if backend == "auto" and not policy.supports_fused_timeline():
            backend = "loop"
        self.backend = backend
        self._timeline: Optional[FusedTimeline] = None

    @property
    def timeline(self) -> Optional[FusedTimeline]:
        """The compiled fused timeline (``None`` on the loop backend).

        Built lazily on first use and reused across evaluations, so the
        schedule compilation is paid once per evaluator.
        """
        if self.backend == "loop":
            return None
        if self._timeline is None:
            self._timeline = FusedTimeline(self.policy, self.timing)
        return self._timeline

    @property
    def reads_trace(self) -> bool:
        """Can a demand trace change what :meth:`evaluate` returns?

        On the fused backend only access-coupled policies
        (``timeline_spec().resets_on_access``) read the trace; for every
        other policy ``evaluate(d, trace)`` equals ``evaluate(d, None)``,
        so callers may skip building the trace.  The round walk is
        conservatively ``True``: it drives the policy's own access hooks.
        """
        if self.backend == "loop":
            return True
        return self.policy.timeline_spec().resets_on_access

    def _accesses_by_row(self, trace: Optional[MemoryTrace]) -> dict[int, np.ndarray]:
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
        self,
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
        accesses = self._accesses_by_row(trace)
        if not accesses:
            return None
        n = self.policy.n_rows
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

    def evaluate(
        self,
        duration_cycles: int,
        trace: Optional[MemoryTrace] = None,
    ) -> RefreshStats:
        """Refresh statistics over ``duration_cycles`` of simulated time.

        Dispatches to the configured backend; every backend returns
        bit-identical statistics (the three-way differential harness
        pins this).

        Args:
            duration_cycles: simulation horizon; refreshes due at or
                after it are not issued (same convention as the engine).
            trace: demand accesses (only their (row, cycle) structure is
                used).
        """
        timeline = self.timeline
        if timeline is None:
            return self._evaluate_loop(duration_cycles, trace)
        return timeline.evaluate(duration_cycles, trace)

    def _evaluate_loop(
        self,
        duration_cycles: int,
        trace: Optional[MemoryTrace] = None,
    ) -> RefreshStats:
        """The PR 3 round walk: one batched ``decide`` per scheduling round.

        Kept verbatim as the reference oracle the fused timeline is
        differentially tested against, and as the path for policies
        whose customization the closed-form timeline cannot represent.
        """
        if duration_cycles <= 0:
            raise ValueError(f"duration must be positive, got {duration_cycles}")
        self.policy.reset()
        stats = RefreshStats(duration_cycles=duration_cycles)

        periods = period_cycles(self.policy, self.timing)
        first = first_deadlines(periods)
        counts = deadline_counts(first, periods, duration_cycles)
        max_rounds = int(counts.max(initial=0))
        if max_rounds == 0:
            return stats
        had_access = self._access_rounds(
            trace, first, periods, counts, duration_cycles, max_rounds
        )

        for round_index in range(max_rounds):
            rows = np.nonzero(counts > round_index)[0]
            if had_access is not None:
                accessed = rows[had_access[rows, round_index]]
                if len(accessed):
                    self.policy.on_access_rows(accessed)
            kinds, latencies = self.policy.decide(rows)
            stats.record_batch(kinds, latencies)
        return stats
