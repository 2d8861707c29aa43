"""Multi-bank rank simulation: refresh at the rank level.

The paper's opening problem statement is that "a DRAM bank/rank becomes
unavailable to service access requests while being refreshed."  The
single-bank engine measures the bank side; this module adds the rank
view, which is where conventional DDR refresh actually operates:

* **all-bank refresh** (JEDEC ``REF``): every tREFI the controller
  issues one command that occupies *all* banks for the (longer)
  all-bank ``tRFC`` — the baseline modern controllers use;
* **per-bank refresh**: row-targeted refreshes to one bank at a time,
  leaving the other banks available — the mode RAIDR/VRL need (they
  must choose per-row latencies), which also recovers bank-level
  parallelism during refresh.

A :class:`RankSimulator` runs one refresh policy instance per bank (each
bank gets its own retention profile slice) over a refresh-only horizon,
reporting per-bank refresh overhead and the rank-level *blocked* time:
the cycles during which at least one bank is refreshing.  With no
demand requests to arbitrate, each mode's whole timeline is a closed
form priced by one path (:meth:`RankSimulator._run_per_bank_fused`,
:meth:`RankSimulator._run_all_bank_fused`).  Request-side effects of
refresh are the single-bank engine's job
(:class:`~repro.sim.engine.BankSimulator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..controller.refresh import RefreshPolicy
from ..technology import BankGeometry, DEFAULT_GEOMETRY
from ._timeline_kernels import crossing_kinds
from .schedule import (
    ALL_BANK_ROWS_PER_REF,
    all_bank_ref_interval,
    all_bank_trfc,
    crossing_stream,
    deadline_counts,
    first_deadlines,
    period_cycles,
)
from .stats import RefreshStats, RequestStats
from .timeline import service_starts, union_length
from .timing import DRAMTiming
from .trace import MemoryTrace

__all__ = ["ALL_BANK_ROWS_PER_REF", "RankResult", "RankSimulator"]


@dataclass
class RankResult:
    """Outcome of a rank simulation.

    Attributes:
        per_bank_refresh: refresh statistics per bank.
        requests: demand-request statistics; always empty, since a rank
            run serves no requests (the same field as
            :class:`~repro.sim.engine.SimulationResult`'s).
        blocked_cycles: cycles during which at least one bank was busy
            refreshing (rank-level unavailability).
        duration_cycles: simulated horizon.
        mode: ``"per-bank"`` or ``"all-bank"``.
    """

    per_bank_refresh: list[RefreshStats]
    requests: RequestStats
    blocked_cycles: int
    duration_cycles: int
    mode: str

    @property
    def total_refresh_cycles(self) -> int:
        """Sum of refresh-busy cycles across banks."""
        return sum(s.refresh_cycles for s in self.per_bank_refresh)

    @property
    def refresh_overhead(self) -> float:
        """Mean per-bank refresh overhead (the Fig. 4 metric, rank-wide)."""
        if self.duration_cycles <= 0:
            return 0.0
        n_banks = len(self.per_bank_refresh)
        return self.total_refresh_cycles / (self.duration_cycles * n_banks)

    @property
    def blocked_fraction(self) -> float:
        """Fraction of time the rank had >= 1 bank refreshing."""
        if self.duration_cycles <= 0:
            return 0.0
        return self.blocked_cycles / self.duration_cycles


class RankSimulator:
    """Simulates ``n_banks`` banks under per-bank refresh policies.

    Args:
        policies: one refresh policy per bank (their ``n_rows`` must all
            match the geometry).
        timing: command timings.
        geometry: per-bank geometry.
        all_bank_refresh: use JEDEC all-bank REF every tREFI instead of
            the policies' row-targeted schedules.  In this mode the
            *first* policy's conventional 64 ms pacing is used and every
            REF blocks all banks; per-bank binning/MPRSF are ignored —
            this is the conventional baseline.
    """

    def __init__(
        self,
        policies: Sequence[RefreshPolicy],
        timing: DRAMTiming,
        geometry: BankGeometry = DEFAULT_GEOMETRY,
        all_bank_refresh: bool = False,
    ):
        if not policies:
            raise ValueError("need at least one bank policy")
        for index, policy in enumerate(policies):
            if policy.n_rows != geometry.rows:
                raise ValueError(
                    f"bank {index}: policy rows {policy.n_rows} != geometry rows "
                    f"{geometry.rows}"
                )
        self.policies = list(policies)
        self.timing = timing
        self.geometry = geometry
        self.all_bank_refresh = all_bank_refresh

    @property
    def n_banks(self) -> int:
        """Number of banks in the rank."""
        return len(self.policies)

    def run(self, duration_cycles: int) -> RankResult:
        """Price ``duration_cycles`` of refresh-only rank time.

        Args:
            duration_cycles: horizon; refreshes due at or after it are
                not issued.
        """
        if isinstance(duration_cycles, MemoryTrace):
            raise ValueError(
                "RankSimulator.run takes a duration in cycles, not a MemoryTrace: "
                "a rank run is refresh-only"
            )
        if duration_cycles <= 0:
            raise ValueError(f"duration must be positive, got {duration_cycles}")
        for policy in self.policies:
            policy.reset()
        refresh_stats = [
            RefreshStats(duration_cycles=duration_cycles) for _ in self.policies
        ]
        if self.all_bank_refresh:
            blocked = self._run_all_bank_fused(duration_cycles, refresh_stats)
        else:
            blocked = self._run_per_bank_fused(duration_cycles, refresh_stats)
        return RankResult(
            per_bank_refresh=refresh_stats,
            requests=RequestStats(),
            blocked_cycles=blocked,
            duration_cycles=duration_cycles,
            mode="all-bank" if self.all_bank_refresh else "per-bank",
        )

    def _run_per_bank_fused(self, duration_cycles, refresh_stats):
        """Fused refresh-only per-bank run; returns rank blocked cycles.

        Each bank's refreshes issue in ``(due, row)`` order and chain
        FCFS on that bank alone, so per bank the whole timeline is: the
        bank's :func:`~repro.sim.schedule.crossing_stream`, the kinds
        from the batched automaton kernel, and the busy chain from
        :func:`~repro.sim.timeline.service_starts`.  Bit-identical to a
        ``(due, bank, row)`` heap loop driving each bank's
        ``refresh_row`` (invariant 11; ``tests/test_rank.py`` keeps that
        loop as the oracle).
        """
        all_starts: list[np.ndarray] = []
        all_ends: list[np.ndarray] = []
        for bank_index, policy in enumerate(self.policies):
            periods = period_cycles(policy, self.timing)
            first = first_deadlines(
                periods, bank_index=bank_index, n_banks=self.n_banks
            )
            counts = deadline_counts(first, periods, duration_cycles)
            spec = policy.timeline_spec()
            total = int(counts.sum())
            if total:
                dues, row_ids, ordinals = crossing_stream(
                    first, periods, duration_cycles
                )
                kinds = crossing_kinds(row_ids, ordinals, spec.phase, spec.cycle_len)
                latencies = spec.kind_latencies[kinds].astype(np.int64)
                starts = service_starts(dues, latencies)
                all_starts.append(starts)
                all_ends.append(starts + latencies)
                stats = refresh_stats[bank_index]
                stats.full_refreshes = int(np.count_nonzero(kinds == 0))
                stats.partial_refreshes = total - stats.full_refreshes
                stats.refresh_cycles = int(latencies.sum())
            spec.commit((counts + spec.phase) % spec.cycle_len)
        if not all_starts:
            return 0
        return union_length(
            np.concatenate(all_starts), np.concatenate(all_ends), duration_cycles
        )

    def _run_all_bank_fused(self, duration_cycles, refresh_stats):
        """Fused refresh-only all-bank run; returns rank blocked cycles.

        Every REF occupies all banks for the same tRFC, so the banks'
        busy chains are identical; one
        :func:`~repro.sim.timeline.service_starts` over the tREFI-paced
        due cycles prices them all.
        """
        trfc = all_bank_trfc(self.policies[0].tau_full)
        interval = all_bank_ref_interval(self.timing, self.geometry.rows)
        dues = np.arange(0, duration_cycles, interval, dtype=np.int64)
        if len(dues) == 0:
            return 0
        starts = service_starts(dues, np.full(len(dues), trfc, dtype=np.int64))
        for stats in refresh_stats:
            stats.refresh_cycles = trfc * len(dues)
            # One REF covers several rows; count row-refreshes so the
            # totals are comparable with per-bank modes.
            stats.full_refreshes = ALL_BANK_ROWS_PER_REF * len(dues)
        return union_length(starts, starts + trfc, duration_cycles)
