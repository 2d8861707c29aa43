"""Trace analysis: the access structure that drives VRL-Access.

VRL-Access's benefit over VRL depends on exactly one trace property:
for each row, the fraction of its refresh intervals containing at least
one access ("window coverage").  This module measures it and provides
the closed-form Markov prediction of the full-refresh fraction under
Algorithm 1 with access resets — validated against the simulator in the
tests, and useful for reasoning about new workloads without simulating
them (``examples/rank_analysis.py``).
"""

from __future__ import annotations

import numpy as np

from ..controller.refresh import RefreshPolicy
from .timing import DRAMTiming
from .trace import MemoryTrace

#: Convergence tolerance of :func:`predicted_full_fraction`'s stationary
#: distribution (max-norm change between damped iterations).
STATIONARY_TOL = 1e-12


def window_coverage(
    trace: MemoryTrace,
    policy: RefreshPolicy,
    timing: DRAMTiming,
    duration_cycles: int,
) -> np.ndarray:
    """Per-row fraction of refresh intervals containing >= 1 access.

    Uses the same staggered deadlines and interval semantics as the
    simulator (an access at cycle ``c`` belongs to the first interval
    whose closing refresh is due strictly after ``c``).

    Returns:
        Array of shape ``(policy.n_rows,)`` with values in [0, 1]; rows
        never accessed have coverage 0.
    """
    if duration_cycles <= 0:
        raise ValueError(f"duration must be positive, got {duration_cycles}")
    n = policy.n_rows
    coverage = np.zeros(n)
    if len(trace) == 0:
        return coverage

    order = np.argsort(trace.rows, kind="stable")
    rows_sorted = trace.rows[order]
    cycles_sorted = trace.cycles[order]
    boundaries = np.nonzero(np.diff(rows_sorted))[0] + 1
    groups = np.split(np.arange(len(rows_sorted)), boundaries)

    for group in groups:
        if len(group) == 0:
            continue
        row = int(rows_sorted[group[0]])
        if row >= n:
            continue
        accesses = cycles_sorted[group]
        period = timing.cycles(policy.row_period(row))
        first_due = (row * period) // n
        dues = np.arange(first_due, duration_cycles, period, dtype=np.int64)
        if len(dues) == 0:
            continue
        seen = np.searchsorted(accesses, dues, side="left")
        had = np.diff(np.concatenate(([0], seen))) > 0
        coverage[row] = had.mean()
    return coverage


def predicted_full_fraction(mprsf: int, coverage: float) -> float:
    """Steady-state full-refresh fraction of Algorithm 1 with access resets.

    Models ``rcount`` as a Markov chain: each refresh interval resets
    the counter with probability ``coverage`` (an access restored the
    row) before the refresh decision.  With ``mprsf = m``:

    * ``m = 0`` — every refresh is full regardless of accesses;
    * ``coverage = 0`` — plain VRL: one full refresh in ``m + 1``;
    * ``coverage = 1`` — never a full refresh (for ``m >= 1``).

    Args:
        mprsf: the row's deployed MPRSF.
        coverage: per-interval access probability in [0, 1].

    Returns:
        The long-run fraction of refreshes issued full.
    """
    if mprsf < 0:
        raise ValueError(f"mprsf must be non-negative, got {mprsf}")
    if not 0 <= coverage <= 1:
        raise ValueError(f"coverage must be in [0,1], got {coverage}")
    if mprsf == 0:
        return 1.0
    m = mprsf
    # States: rcount value 0..m entering the interval.
    pi = np.zeros(m + 1)
    pi[0] = 1.0
    for _ in range(100_000):
        nxt = np.zeros(m + 1)
        for state, probability in enumerate(pi):
            if probability == 0.0:
                continue
            # Access resets rcount to 0 with prob = coverage.
            for effective, p_branch in ((0, coverage), (state, 1.0 - coverage)):
                if p_branch == 0.0:
                    continue
                if effective == m:
                    nxt[0] += probability * p_branch  # full refresh, reset
                else:
                    nxt[effective + 1] += probability * p_branch  # partial
        if np.max(np.abs(nxt - pi)) < STATIONARY_TOL:
            pi = nxt
            break
        # Damped update: the coverage=0 chain is periodic (rcount walks
        # a fixed cycle) and plain power iteration would oscillate;
        # averaging converges to the stationary distribution.
        pi = 0.5 * (pi + nxt)
    # Full refreshes happen from effective state m: prob of being in
    # state m and not reset by an access.
    return float(pi[m] * (1.0 - coverage))


def predict_vrl_access_cycles(
    mprsf: np.ndarray,
    coverage: np.ndarray,
    row_period: np.ndarray,
    tau_partial: int,
    tau_full: int,
) -> float:
    """Predicted steady-state refresh cycles/second under VRL-Access.

    The per-row full-refresh fraction comes from
    :func:`predicted_full_fraction`; the result is directly comparable
    to :meth:`TauPartialOptimizer.vrl_overhead` and to simulated
    ``RefreshStats.refresh_cycles / duration_seconds``.
    """
    if not (len(mprsf) == len(coverage) == len(row_period)):
        raise ValueError("mprsf, coverage and row_period must have equal length")
    total = 0.0
    cache: dict[tuple[int, int], float] = {}
    for m, c, period in zip(mprsf, coverage, row_period):
        key = (int(m), int(round(1000 * c)))
        if key not in cache:
            cache[key] = predicted_full_fraction(int(m), key[1] / 1000.0)
        f_full = cache[key]
        avg_cost = f_full * tau_full + (1.0 - f_full) * tau_partial
        total += avg_cost / period
    return total
