"""Trace-driven DRAM bank simulation substrate (Sec. 4.1).

The paper feeds Ramulator-generated memory traces into an in-house
simulator of an 8192x32 bank and measures "cycles spent refreshing the
bank" under each policy.  This package is that simulator:

* :mod:`~repro.sim.timing` — DDR-style timing parameters in controller
  cycles;
* :mod:`~repro.sim.trace` — the trace representations (whole arrays,
  or cycles with rows streamed block by block);
* :mod:`~repro.sim.schedule` — the shared refresh-deadline semantics
  (staggered first deadlines, interval arithmetic, DARP deferral,
  all-bank REF pacing) every simulator consumes;
* :mod:`~repro.sim.engine` — the cycle-level trace-driven simulator
  (one bank: row buffer, ACT/PRE/CAS timings, refresh blocking);
* :mod:`~repro.sim.fastpath` — an exact, bank-vectorized evaluator of
  refresh overhead, used for the full Fig. 4 sweep (validated against
  the cycle-level engine in the integration and differential tests);
* :mod:`~repro.sim.timeline` — the fused ndarray timeline that prices
  every policy from its ``TimelineSpec``: all deadline crossings of a
  horizon in one batched numpy kernel call, zero Python-level loops;
* :mod:`~repro.sim.rank` — refresh-only multi-bank rank simulation
  comparing JEDEC all-bank refresh against the per-bank row-targeted
  mode VRL needs;
* :mod:`~repro.sim.stats` — result containers;
* :mod:`~repro.sim.trace_stats` — per-row window coverage and the
  closed-form Markov prediction of VRL-Access behaviour from it.
"""

from .engine import BankSimulator, SimulationResult
from .fastpath import RefreshOverheadEvaluator
from .rank import RankResult, RankSimulator
from .schedule import (
    ALL_BANK_ROWS_PER_REF,
    all_bank_ref_interval,
    all_bank_trfc,
    deadline_counts,
    first_deadlines,
    period_cycles,
    row_deadlines,
)
from .stats import RefreshStats, RequestStats
from .timeline import FusedTimeline, TimelineReport, service_starts, union_length
from .timing import DRAMTiming
from .trace_stats import predict_vrl_access_cycles, predicted_full_fraction, window_coverage
from .trace import MemoryTrace, StreamedTrace

__all__ = [
    "BankSimulator",
    "SimulationResult",
    "RefreshOverheadEvaluator",
    "RankResult",
    "RankSimulator",
    "ALL_BANK_ROWS_PER_REF",
    "all_bank_ref_interval",
    "all_bank_trfc",
    "deadline_counts",
    "first_deadlines",
    "period_cycles",
    "row_deadlines",
    "RefreshStats",
    "RequestStats",
    "FusedTimeline",
    "TimelineReport",
    "service_starts",
    "union_length",
    "DRAMTiming",
    "predict_vrl_access_cycles",
    "predicted_full_fraction",
    "window_coverage",
    "MemoryTrace",
    "StreamedTrace",
]
