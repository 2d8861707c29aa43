"""Shared refresh-deadline scheduling semantics (single source of truth).

Every simulator in the stack — the cycle-level
:class:`~repro.sim.engine.BankSimulator`, the vectorized
:class:`~repro.sim.fastpath.RefreshOverheadEvaluator`, and the
multi-bank :class:`~repro.sim.rank.RankSimulator` — must agree on
*when* a row's refresh is due and on how a deadline arbitrates against
a demand request.  Those rules used to be re-implemented in each
simulator; this module is their one definition, and the differential
engine-vs-fastpath harness pins all consumers to it:

* **staggered first deadlines** — row ``r`` of a bank first refreshes
  at ``(r * P_r) // n_rows``, spreading commands across the period
  exactly like a tREFI-paced controller; banks of a rank add a further
  ``(bank * P_r) // (n_rows * n_banks)`` offset;
* **interval arithmetic** — subsequent deadlines advance by the row's
  quantized period; a deadline at or past the simulation horizon is
  never issued;
* **tie-breaking** — a refresh due at cycle ``c`` is serviced before a
  demand request arriving at ``c`` (the controller cannot postpone a
  deadline-bound refresh indefinitely without violating retention), so
  an access on a deadline affects only the *next* interval;
* **all-bank REF pacing** — the JEDEC baseline's command interval and
  tRFC derive from :data:`CONVENTIONAL_PERIOD` and
  :data:`ALL_BANK_ROWS_PER_REF` here, not from per-simulator literals;
* **out-of-order deferral** — mechanisms whose ``reorders_refresh``
  capability flag is set (DARP) override in-order issue through
  :func:`should_defer_refresh`: a due refresh yields to colliding
  latency-critical reads within the policy's postpone slack and fills
  the first idle window instead, while posted writes never defer it
  (write-drain overlap).  Deferral moves refreshes in time only —
  counts, kinds, and latencies stay identical to in-order issue.

Periods are quantized to controller cycles through
:meth:`~repro.sim.timing.DRAMTiming.cycles` on the *unique* period
values (policies bin rows into a handful of periods), guaranteeing
bit-identical quantization between the scalar and vectorized paths.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..controller.refresh import CONVENTIONAL_PERIOD, RefreshPolicy
from .timing import DRAMTiming

__all__ = [
    "ALL_BANK_ROWS_PER_REF",
    "CONVENTIONAL_PERIOD",
    "all_bank_ref_interval",
    "all_bank_trfc",
    "crossing_stream",
    "deadline_counts",
    "first_deadlines",
    "period_cycles",
    "row_deadlines",
    "should_defer_refresh",
]

#: Rows of every bank covered by one all-bank ``REF`` command.  A JEDEC
#: REF refreshes several rows per bank back-to-back — the controller
#: issues ``rows / ALL_BANK_ROWS_PER_REF`` commands per 64 ms
#: :data:`CONVENTIONAL_PERIOD` (i.e. every tREFI), and the command's
#: tRFC is this multiple of the single-row latency.  This is why
#: rank-level tRFC is far larger than a row cycle, and it is shared by
#: the rank simulator and the baselines study so both model the same
#: REF semantics.
ALL_BANK_ROWS_PER_REF = 4


def period_cycles(policy: RefreshPolicy, timing: DRAMTiming) -> np.ndarray:
    """Per-row refresh periods quantized to controller cycles.

    Equivalent to ``timing.cycles(policy.row_period(r))`` for every row,
    but vectorized: quantization runs once per *unique* period (policies
    bin rows into a few periods), so the result is bit-identical to the
    scalar path at a fraction of the cost.

    Returns:
        ``int64`` array of shape ``(policy.n_rows,)``.
    """
    periods = np.asarray(policy.row_periods(), dtype=float)
    unique, inverse = np.unique(periods, return_inverse=True)
    quantized = np.array([timing.cycles(float(p)) for p in unique], dtype=np.int64)
    return quantized[inverse]


def first_deadlines(
    periods_cycles: np.ndarray,
    bank_index: int = 0,
    n_banks: int = 1,
) -> np.ndarray:
    """Staggered first refresh deadline of every row, in cycles.

    Row ``r`` of ``n`` rows first refreshes at ``(r * P_r) // n`` —
    a tREFI-paced controller walks the rows once per period, so the
    deadlines spread uniformly instead of bursting at cycle 0.  In a
    rank, bank ``b`` adds ``(b * P_r) // (n * n_banks)`` so refreshes
    also stagger across banks.

    Args:
        periods_cycles: per-row periods in cycles (from
            :func:`period_cycles`).
        bank_index: position of this bank in the rank (0 for a single
            bank).
        n_banks: number of banks sharing the stagger.

    Returns:
        ``int64`` array of shape ``(n_rows,)``.
    """
    periods_cycles = np.asarray(periods_cycles, dtype=np.int64)
    n = len(periods_cycles)
    rows = np.arange(n, dtype=np.int64)
    first = (rows * periods_cycles) // n
    if bank_index:
        first = first + (bank_index * periods_cycles) // (n * n_banks)
    return first


def deadline_counts(
    first: np.ndarray, periods_cycles: np.ndarray, duration_cycles: int
) -> np.ndarray:
    """Number of deadlines of each row that fall before the horizon.

    A row with first deadline ``f`` and period ``P`` is due at
    ``f, f+P, f+2P, ...``; deadlines at or past ``duration_cycles`` are
    not issued (the engine's convention).

    Returns:
        ``int64`` array of per-row deadline counts.
    """
    first = np.asarray(first, dtype=np.int64)
    periods_cycles = np.asarray(periods_cycles, dtype=np.int64)
    counts = np.zeros(len(first), dtype=np.int64)
    live = first < duration_cycles
    counts[live] = (duration_cycles - 1 - first[live]) // periods_cycles[live] + 1
    return counts


def crossing_stream(
    first: np.ndarray, periods_cycles: np.ndarray, duration_cycles: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every deadline before the horizon, in issue order.

    Flattens each row's deadlines ``f, f+P, ...`` and sorts them by
    ``(due, row)`` — exactly the order a ``(due, row)`` min-heap that
    re-pushes each popped row one period later would pop them, so the
    result is the refresh stream an event loop would issue.

    Returns:
        ``(dues, rows, ordinals)`` — ``int64`` arrays of the due cycle,
        the row, and the row's crossing ordinal (0 for its first
        deadline) of every crossing.
    """
    first = np.asarray(first, dtype=np.int64)
    periods_cycles = np.asarray(periods_cycles, dtype=np.int64)
    counts = deadline_counts(first, periods_cycles, duration_cycles)
    rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    ordinals = np.arange(len(rows), dtype=np.int64)
    ordinals -= np.repeat(np.cumsum(counts) - counts, counts)
    dues = periods_cycles[rows]
    dues *= ordinals
    dues += first[rows]
    # Rows are laid out ascending, so a stable sort on the due cycle
    # alone breaks ties by row, like the heap.
    order = np.argsort(dues, kind="stable")
    dues = dues[order]
    rows = rows[order]
    ordinals = ordinals[order]
    return dues, rows, ordinals


def row_deadlines(
    first_due: int, period_cycles_row: int, duration_cycles: int
) -> np.ndarray:
    """All deadlines of one row before the horizon, in due order."""
    if first_due >= duration_cycles:
        return np.empty(0, dtype=np.int64)
    return np.arange(first_due, duration_cycles, period_cycles_row, dtype=np.int64)


def should_defer_refresh(
    start_cycle: int,
    latency_cycles: int,
    read_at: Optional[int],
    read_is_write: bool,
    defer_limit: int,
) -> bool:
    """Out-of-order arbitration for reordering mechanisms (DARP).

    Called only when in-order issue already awarded the slot to the
    refresh (it is due at or before the pending request's arrival): a
    ``reorders_refresh`` controller overrides that
    award and serves the pending demand request first when the bank's
    next *read* would collide with the refresh window — i.e. it arrives
    before ``start_cycle + latency_cycles``, where ``start_cycle`` is
    when the refresh would actually occupy the bank
    (``max(due, busy_until)``) — and slack remains (the read arrives
    strictly before ``defer_limit``, the deadline plus the policy's
    postpone budget).  Re-evaluated after every served request, the rule
    pushes the refresh forward until either an **idle window** at least
    one refresh long opens up (no colliding read) or the slack is
    exhausted, at which point the refresh is issued unconditionally —
    deferral changes *when* a refresh runs, never whether it runs, so
    refresh statistics are reorder-invariant.

    Pending *writes* never defer a refresh (``read_is_write``): writes
    are posted and tolerate latency, so the refresh proceeds under the
    write drain — DARP's write-refresh parallelization.

    The rule is elementwise: given arrays (one entry per refresh), it
    returns the boolean mask of refreshes to defer, which is how the
    bank engine finds the deferral windows of a whole in-order chain.

    Args:
        start_cycle: cycle the refresh would start if issued now.
        latency_cycles: the refresh's planned blocking window.
        read_at: arrival of the bank's earliest pending demand request,
            ``None`` when the bank has none.
        read_is_write: whether that request is a (posted) write.
        defer_limit: latest arrival a yielded-to read may have — the
            original deadline plus the policy's
            ``refresh_slack_cycles``.
    """
    if read_at is None:
        return False
    collides = (read_at < start_cycle + latency_cycles) & (read_at < defer_limit)
    return collides & np.logical_not(read_is_write)


def all_bank_ref_interval(timing: DRAMTiming, rows: int) -> int:
    """Cycle interval between JEDEC all-bank ``REF`` commands.

    Every row of every bank must be covered once per
    :data:`CONVENTIONAL_PERIOD`; with :data:`ALL_BANK_ROWS_PER_REF`
    rows per command the controller issues
    ``rows / ALL_BANK_ROWS_PER_REF`` commands per period.
    """
    refs_per_period = max(1, rows // ALL_BANK_ROWS_PER_REF)
    return max(1, timing.cycles(CONVENTIONAL_PERIOD) // refs_per_period)


def all_bank_trfc(tau_full: int) -> int:
    """tRFC of one all-bank ``REF``: several back-to-back row refreshes."""
    return tau_full * ALL_BANK_ROWS_PER_REF
