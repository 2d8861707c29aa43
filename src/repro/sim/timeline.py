"""Fused ndarray timeline: zero-Python-loop refresh evaluation.

Walking scheduling *rounds* — a Python ``for`` over ``max_rounds``
with one ``decide`` call per round — would make that loop the dominant
cost of the Fig. 4/5 sweeps.  This module has none.  The observation:
every policy's per-row decision sequence is a modular counter (see
:class:`~repro.controller.refresh.TimelineSpec`), so the *entire*
timeline of deadline crossings can be evaluated at once:

1. **compile** — per-row quantized periods and staggered first
   deadlines come once from :mod:`~repro.sim.schedule` at construction
   (compile-once / evaluate-many, like ``circuit.CircuitSession``);
2. **precompute crossings** — per-row crossing counts of the horizon
   via :func:`~repro.sim.schedule.deadline_counts`, and access-driven
   cadence resets as one vectorized pass over the trace's
   ``(cycles, rows)`` blocks (interval index per access in
   O(n_accesses), no per-row Python);
3. **evaluate** — one batched kernel call
   (:func:`~repro.sim._timeline_kernels.segmented_fulls`) yields every
   row's full/partial split and end-of-timeline counter phase;
   statistics reduce with scatter/sum ops.

Results are bit-identical to the cycle-level engine and to the round
walk kept in ``tests/reference_refresh.py`` (invariant 11; three-way
differential harness in ``tests/test_differential_engine_fastpath.py``).
:class:`~repro.controller.refresh.RefreshPolicy` refuses at class
creation a subclass whose spec could miss its kernel, so every policy
is priced here.  A failure inside the fused kernels raises to the
caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from ..controller.refresh import RefreshPolicy
from ..guard import assert_finite
from ._timeline_kernels import segmented_fulls
from .schedule import deadline_counts, first_deadlines, period_cycles
from .stats import RefreshStats
from .timing import DRAMTiming
from .trace import MemoryTrace, StreamedTrace

__all__ = [
    "FusedTimeline",
    "TimelineReport",
    "access_resets",
    "service_starts",
    "union_length",
]

#: Bytes of reset bitmap :func:`access_resets` may always allocate.
_RESET_BITMAP_FLOOR = 1 << 20
#: Bitmap bytes allowed per access: what a whole-trace int64 cycle
#: array would take.  A streamed trace holds about two bytes a request,
#: but a smaller bound would send long traces through more windowed
#: passes, each of which decodes the cycles and rebuilds the rows again.
_RESET_BITMAP_PER_ACCESS = 8
#: Accesses :func:`access_resets` prices per block.
_RESET_BLOCK = 1 << 14


@dataclass(frozen=True)
class TimelineReport:
    """Telemetry of one fused evaluation (not part of the statistics).

    Attributes:
        crossings: deadline crossings evaluated (the work unit the
            benchmarks report as rows·intervals).
        resets: access-driven cadence restarts applied.
    """

    crossings: int
    resets: int


class FusedTimeline:
    """Compiled fused-timeline evaluator for one (policy, timing) pair.

    Construction compiles the schedule (quantized periods, staggered
    first deadlines); :meth:`evaluate` then prices any horizon/trace
    without a Python loop over rounds.  Reuse one instance across
    evaluations of the same bank — the compiled schedule and the
    per-duration crossing counts are cached.

    Args:
        policy: refresh policy, priced from its
            :meth:`~repro.controller.refresh.RefreshPolicy.timeline_spec`.
        timing: command timings (cycle clock and deadline quantization).
    """

    def __init__(self, policy: RefreshPolicy, timing: DRAMTiming):
        self.policy = policy
        self.timing = timing
        self._periods = period_cycles(policy, timing)
        self._first = first_deadlines(self._periods)
        self._counts_cache: tuple[int, np.ndarray] = (-1, np.empty(0, dtype=np.int64))
        self.last_report: Optional[TimelineReport] = None

    def _counts(self, duration_cycles: int) -> np.ndarray:
        """Per-row crossing counts for a horizon, cached per duration."""
        cached_duration, cached = self._counts_cache
        if cached_duration != duration_cycles:
            cached = deadline_counts(self._first, self._periods, duration_cycles)
            self._counts_cache = (duration_cycles, cached)
        return cached

    def evaluate(
        self,
        duration_cycles: int,
        trace: Optional[Union[MemoryTrace, StreamedTrace]] = None,
    ) -> RefreshStats:
        """Refresh statistics over ``duration_cycles`` of simulated time.

        Same contract (and bit-identical results) as
        :meth:`repro.sim.fastpath.RefreshOverheadEvaluator.evaluate`
        and the cycle-level engine's refresh accounting.

        Args:
            duration_cycles: simulation horizon; refreshes due at or
                after it are not issued.
            trace: demand accesses (only their (row, cycle) structure
                matters, and only for access-coupled policies); a
                :class:`~repro.sim.trace.StreamedTrace` is read one
                decoded ``(cycles, rows)`` block at a time.
        """
        if duration_cycles <= 0:
            raise ValueError(f"duration must be positive, got {duration_cycles}")
        self.policy.reset()
        stats = RefreshStats(duration_cycles=duration_cycles)
        spec = self.policy.timeline_spec()
        counts = self._counts(duration_cycles)
        total_crossings = int(counts.sum())
        if total_crossings == 0:
            self.last_report = TimelineReport(0, 0)
            return stats

        if spec.resets_on_access and trace is not None:
            blocks = (
                trace if isinstance(trace, StreamedTrace) else [(trace.cycles, trace.rows)]
            )
            reset_rows, reset_ordinals = access_resets(
                blocks, self._first, self._periods, counts
            )
        else:
            reset_rows = reset_ordinals = np.empty(0, dtype=np.int64)

        fulls, phase = segmented_fulls(
            counts, spec.phase, spec.cycle_len, reset_rows, reset_ordinals
        )
        spec.commit(phase)

        total_fulls = int(fulls.sum())
        stats.full_refreshes = total_fulls
        stats.partial_refreshes = total_crossings - total_fulls
        stats.refresh_cycles = int(
            total_fulls * int(spec.kind_latencies[0])
            + stats.partial_refreshes * int(spec.kind_latencies[1])
        )
        assert_finite(float(stats.refresh_cycles), "sim.timeline.evaluate", "refresh_cycles")
        self.last_report = TimelineReport(
            crossings=total_crossings, resets=int(len(reset_rows))
        )
        return stats


def access_resets(
    blocks: Union[StreamedTrace, Iterable[tuple[np.ndarray, np.ndarray]]],
    first: np.ndarray,
    periods_cycles: np.ndarray,
    counts: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Unique (row, crossing-ordinal) cadence resets of a set of accesses.

    An access at cycle ``c`` lands in the interval that ends at the
    first deadline strictly after ``c`` (refresh wins ties, so an
    access *on* a deadline affects the next interval): ordinal 0 for
    ``c < first``, else ``(c - first) // period + 1``.  Rows outside
    the bank are inert.  The accesses come as ``(cycles, rows)`` blocks
    (a whole-array caller passes one pair), so a streamed trace is
    priced without its cycles or rows ever existing at once.  No
    per-row Python and no access-length temporary:
    :data:`_RESET_BLOCK` accesses at a time, each access marks its
    packed ``row * span + ordinal`` key in a boolean bitmap of shape
    ``(rows, span)``, and its set bits, read back in order, are the
    resets already sorted and unique (one ``flatnonzero``, whose keys
    are divided into rows and, in place, ordinals: a 2-D ``nonzero``
    returns the same pair but scans the bitmap about four times
    slower).  ``span`` bounds the ordinals without reading them: it is
    one past the largest ordinal the latest access could have in any
    row.  A :class:`~repro.sim.trace.StreamedTrace` ascends, so its
    last cycle is the latest; other blocks are read for their largest
    cycle.  The bitmap covers the whole bank unless that would exceed
    ``max(_RESET_BITMAP_FLOOR, _RESET_BITMAP_PER_ACCESS * n_accesses)``
    bytes; then it covers as many whole rows as fit (at least one) and
    is filled and read one window of rows at a time, each window one
    more pass over the blocks, so memory stays bounded.

    Args:
        blocks: a streamed trace, or re-iterable ``(cycles, rows)``
            pairs of equal-length arrays, cycles in any order.
        first: per-row first deadlines (from
            :func:`~repro.sim.schedule.first_deadlines`).
        periods_cycles: per-row periods in cycles.
        counts: per-row crossing counts of the horizon.  When given,
            accesses at or past a row's last crossing are dropped
            (cleared from the bitmap before it is read): they restart
            no crossing of the horizon.  The bank engine leaves
            it ``None`` for its served requests, because such an access
            still restarts the counter the run ends with.

    Returns:
        ``(reset_rows, reset_ordinals)`` sorted by ``(row, ordinal)``
        and unique — the form :func:`segmented_fulls` and
        :func:`~repro.sim._timeline_kernels.crossing_kinds` take.
    """
    if isinstance(blocks, StreamedTrace):
        n_accesses, latest = len(blocks), blocks.last_cycle
    else:
        n_accesses = sum(len(cycles) for cycles, _ in blocks)
        latest = max((int(np.max(cycles)) for cycles, _ in blocks if len(cycles)), default=0)
    n_rows = len(first)
    if n_accesses == 0 or n_rows == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # (c - first) // period + 1 is largest at the latest access: each
    # row's top ordinal, and one past the largest is the span.
    tops = latest - first
    tops //= periods_cycles
    tops += 1
    np.maximum(tops, 0, out=tops)
    span = int(tops.max()) + 1
    budget = max(_RESET_BITMAP_FLOOR, _RESET_BITMAP_PER_ACCESS * n_accesses)
    window_rows = min(n_rows, max(1, budget // span))
    seen = np.zeros((window_rows, span), dtype=bool)
    flat = seen.reshape(-1)
    found_rows, found_ordinals = [], []
    row = 0
    while row < n_rows:
        end = min(n_rows, row + window_rows)
        start_key, end_key = row * span, end * span
        following = n_rows * span
        for keys in _reset_keys(blocks, first, periods_cycles, span):
            if window_rows < n_rows:
                following = min(following, int(keys.min(where=keys >= end_key,
                                                       initial=following)))
                keys = keys[(keys >= start_key) & (keys < end_key)] - start_key
            flat[keys] = True
        if counts is not None:
            _clear_past_counts(seen, counts[row:end], tops[row:end])
        bits = np.flatnonzero(flat[:(end - row) * span])
        window_resets = bits // span
        window_resets += row
        found_rows.append(window_resets)
        found_ordinals.append(np.remainder(bits, span, out=bits))
        seen[:] = False
        row = following // span
    if len(found_rows) == 1:
        return found_rows[0], found_ordinals[0]
    return np.concatenate(found_rows), np.concatenate(found_ordinals)


def _clear_past_counts(seen, counts, tops):
    """Unmark each row's ordinals ``counts[r]..tops[r]``: accesses after
    the row's last crossing restart none of the horizon's crossings.

    Row ``r`` marks no ordinal past ``tops[r]``, so this clears every
    mark at or past ``counts[r]``.  For a trace no longer than the
    horizon that is at most one ordinal a row, cleared by one fancy
    store; a trace that runs further past the horizon is cleared with
    one dense window mask instead of one store per ordinal.
    """
    past = int((tops - counts).max())
    if past == 0:
        rows = np.flatnonzero(counts <= tops)
        seen[rows, counts[rows]] = False
    elif past > 0:
        window = seen[:len(counts)]
        window &= np.arange(seen.shape[1]) < counts[:, None]


def _reset_keys(blocks, first, periods_cycles, span):
    """Each block's packed ``row * span + ordinal`` keys.

    Accesses to rows outside the bank are left out.  Raises if a
    block's cycles and rows differ in length.
    """
    n_rows = len(first)
    # (c - (first - period)) // period == (c - first) // period + 1 for
    # period > 0, which is <= 0 exactly when c < first.
    restarts = first - periods_cycles
    row_keys = np.empty(_RESET_BLOCK, dtype=np.int64)
    for cycles, rows in blocks:
        cycles = np.asarray(cycles, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) != len(cycles):
            raise ValueError(f"a block holds {len(rows)} rows for {len(cycles)} access cycles")
        for start in range(0, len(rows), _RESET_BLOCK):
            block_rows = rows[start:start + _RESET_BLOCK]
            block_cycles = cycles[start:start + _RESET_BLOCK]
            if block_rows.min() < 0 or block_rows.max() >= n_rows:
                in_bank = (block_rows >= 0) & (block_rows < n_rows)
                block_rows, block_cycles = block_rows[in_bank], block_cycles[in_bank]
            keys = np.take(restarts, block_rows)
            np.subtract(block_cycles, keys, out=keys)
            keys //= np.take(periods_cycles, block_rows)
            np.maximum(keys, 0, out=keys)
            keys += np.multiply(block_rows, span, out=row_keys[:len(keys)])
            yield keys


def service_starts(
    dues: np.ndarray, busy_cycles: np.ndarray, busy_until: int = 0
) -> np.ndarray:
    """Start cycles of back-to-back operations on one busy resource.

    The bank's FCFS recurrence ``start_i = max(due_i, finish_{i-1})``
    with ``finish_i = start_i + busy_i`` solved in closed form: with
    exclusive prefix sums ``P`` of the busy times, a chain served
    back-to-back since operation ``j`` starts at ``due_j + P_i - P_j``,
    so ``start_i = max_{j<=i}(due_j - P_j) + P_i`` — one
    ``np.maximum.accumulate``, no Python loop.  ``dues`` must be sorted
    ascending (the order the event loop pops them).  ``busy_until`` is
    the finish of whatever ran before the first operation; the chain
    served back-to-back from it starts at ``busy_until + P_i``.
    """
    if len(dues) == 0:
        return np.empty(0, dtype=np.int64)
    prefix = np.cumsum(busy_cycles)
    prefix -= busy_cycles
    starts = dues - prefix
    np.maximum.accumulate(starts, out=starts)
    if busy_until:
        np.maximum(starts, busy_until, out=starts)
    starts += prefix
    return starts


def union_length(starts: np.ndarray, ends: np.ndarray, horizon: int) -> int:
    """Total covered length of ``[start, end)`` intervals, clipped.

    Vectorized equivalent of the rank simulator's interval-union
    bookkeeping: sort by start, track the covered frontier with a
    running maximum of ends, and sum each interval's contribution past
    the frontier.
    """
    if len(starts) == 0:
        return 0
    order = np.argsort(starts, kind="stable")
    starts = np.minimum(starts[order], horizon)
    ends = np.minimum(ends[order], horizon)
    frontier = np.concatenate(
        ([starts[0]], np.maximum.accumulate(ends)[:-1])
    )
    contributions = np.maximum(0, ends - np.maximum(starts, frontier))
    return int(contributions.sum())
