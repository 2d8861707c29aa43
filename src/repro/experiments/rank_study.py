"""RANK: rank-level refresh study (extension of the paper's motivation).

The paper motivates VRL-DRAM with "a DRAM bank/rank becomes unavailable
to service access requests while being refreshed."  This study
quantifies the rank view on an 8-bank rank:

* **all-bank REF** — the conventional JEDEC baseline: every tREFI, one
  command blocks all banks;
* **per-bank fixed** — row-targeted 64 ms refreshes (bank-level
  parallelism recovered, latency unchanged);
* **per-bank RAIDR / VRL / VRL-Access** — the paper's progression.

Reported per mode: aggregate refresh cycles, mean per-bank overhead, and
the rank blocked-time fraction (probability >= 1 bank is refreshing).
"""

from __future__ import annotations

from typing import Optional

from ..retention import RetentionProfiler
from ..runner import Cell, ExperimentRunner
from ..service import LocalClient
from ..technology import DEFAULT_TECH, BankGeometry, TechnologyParams
from .result import ExperimentResult

#: Modes compared, in presentation order.
RANK_MODES = ("all-bank", "fixed", "raidr", "vrl", "vrl-access")


def run_rank_comparison(
    tech: TechnologyParams = DEFAULT_TECH,
    geometry: BankGeometry = BankGeometry(1024, 32),
    n_banks: int = 8,
    duration_seconds: float = 0.5,
    seed: int = RetentionProfiler.DEFAULT_SEED,
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Compare refresh modes at rank granularity.

    Args:
        tech: technology parameters.
        geometry: per-bank geometry (default reduced to 1024 rows so the
            cycle-level 8-bank simulation stays interactive; the
            relative behaviour is geometry-stable).
        n_banks: banks per rank (DDR3: 8).
        duration_seconds: simulated horizon.
        seed: base profiling seed (each bank gets its own profile).
        runner: experiment executor to sweep through; defaults to
            a serial, uncached one.
    """
    cells = [
        Cell.of(
            "rank-mode",
            tech=tech,
            rows=geometry.rows,
            cols=geometry.cols,
            n_banks=n_banks,
            mode=mode,
            seed=seed,
            duration_seconds=duration_seconds,
        )
        for mode in RANK_MODES
    ]
    report = LocalClient(runner).sweep(cells, experiment="rank")

    rows = []
    baseline_cycles = None
    dropped = []
    for mode, payload in zip(RANK_MODES, report.results):
        if payload is None:  # cell failed every attempt
            dropped.append(mode)
            continue
        if baseline_cycles is None:
            baseline_cycles = payload["total_refresh_cycles"]
        rows.append(
            (
                mode,
                payload["total_refresh_cycles"],
                f"{payload['total_refresh_cycles'] / baseline_cycles:.3f}",
                f"{100 * payload['refresh_overhead']:.3f}%",
                f"{100 * payload['blocked_fraction']:.3f}%",
            )
        )

    return ExperimentResult(
        experiment_id="RANK",
        title=f"Rank-level refresh comparison ({n_banks} banks of {geometry})",
        headers=[
            "mode",
            "refresh cycles",
            "vs all-bank",
            "per-bank overhead",
            "rank blocked time",
        ],
        rows=rows,
        notes={
            "per-bank overhead": (
                "probability a request finds its own bank refreshing "
                "(the bank-availability metric VRL improves)"
            ),
            "rank blocked time": (
                "fraction of time >= 1 bank is refreshing; all-bank REF "
                "concentrates blockage (all banks at once), per-bank modes "
                "spread it but never block the whole rank"
            ),
            "observation": (
                "RAIDR cuts the refresh count ~4x, VRL shortens each remaining "
                "operation, and both keep 7 of 8 banks available during refresh"
            ),
            **(
                {"modes dropped (failed cells)": ", ".join(dropped)}
                if dropped
                else {}
            ),
        },
    ).merge_notes(report.notes())
