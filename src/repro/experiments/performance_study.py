"""PERF: demand-request performance impact of the refresh policies.

Fig. 4 measures cycles spent refreshing; what a system ultimately cares
about is how much refresh *slows down memory requests*.  This study runs
the cycle-level engine (queueing, row-buffer state, refresh blocking)
per benchmark and policy, reporting mean request latency, the
refresh-attributed stall cycles, and row-hit rates — the
RAIDR-paper-style performance view the DAC format squeezed out.

The default duration is shorter than Fig. 4's; refresh behaviour
reaches steady state within a few 256 ms generations.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..retention import RetentionProfiler
from ..runner import Cell, ExperimentRunner
from ..service import LocalClient
from ..sim.stats import RefreshStats, RequestStats
from ..technology import DEFAULT_GEOMETRY, DEFAULT_TECH, BankGeometry, TechnologyParams
from ..workloads import PARSEC_WORKLOADS
from .result import ExperimentResult

#: Policies compared, in presentation order.
PERF_POLICIES = ("fixed", "raidr", "vrl", "vrl-access")

#: Default benchmark subset (one per behaviour class) for the
#: cycle-level run; pass ``benchmarks`` to widen.
DEFAULT_BENCHMARKS = ("swaptions", "freqmine", "canneal", "bgsave")


def run_performance_study(
    tech: TechnologyParams = DEFAULT_TECH,
    geometry: BankGeometry = DEFAULT_GEOMETRY,
    duration_seconds: float = 0.3,
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = RetentionProfiler.DEFAULT_SEED,
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Cycle-level request-latency comparison across refresh policies.

    Args:
        tech: technology parameters.
        geometry: bank geometry.
        duration_seconds: simulated time per (benchmark, policy) pair.
        benchmarks: benchmark names; defaults to a four-workload subset.
        seed: profiling / trace seed.
        runner: experiment executor to sweep through; defaults to
            a serial, uncached one.
    """
    names = list(benchmarks) if benchmarks else list(DEFAULT_BENCHMARKS)
    for name in names:
        if name not in PARSEC_WORKLOADS:
            raise KeyError(
                f"unknown workload {name!r}; available: {list(PARSEC_WORKLOADS)}"
            )

    grid = [(bench, policy) for bench in names for policy in PERF_POLICIES]
    cells = [
        Cell.of(
            "engine-run",
            tech=tech,
            rows=geometry.rows,
            cols=geometry.cols,
            policy=policy,
            nbits=2,
            benchmark=bench,
            seed=seed,
            duration_seconds=duration_seconds,
        )
        for bench, policy in grid
    ]
    report = LocalClient(runner).sweep(cells, experiment="performance")
    outcomes = {
        pair: (RefreshStats(**payload["refresh"]), RequestStats(**payload["requests"]))
        for pair, payload in zip(grid, report.results)
        if payload is not None  # failed cells carry no payload
    }

    # Latencies are normalized to the fixed policy per benchmark, so a
    # benchmark missing any policy cell is dropped (noted below), not
    # fatal to the rest of the study.
    complete_names = [
        bench
        for bench in names
        if all((bench, policy) in outcomes for policy in PERF_POLICIES)
    ]
    rows = []
    stall_summary: dict[str, int] = {}
    for bench in complete_names:
        base_latency = None
        for policy_name in PERF_POLICIES:
            refresh, requests = outcomes[(bench, policy_name)]
            latency = requests.mean_latency_cycles
            if base_latency is None:
                base_latency = latency
            stall_summary[policy_name] = (
                stall_summary.get(policy_name, 0) + requests.refresh_stall_cycles
            )
            rows.append(
                (
                    bench,
                    policy_name,
                    f"{latency:.2f}",
                    f"{latency / base_latency:.4f}",
                    requests.refresh_stall_cycles,
                    f"{100 * requests.row_hit_rate:.1f}%",
                    f"{100 * refresh.overhead:.3f}%",
                )
            )

    notes = {
        "baseline": "latency normalized to the conventional fixed-64ms policy per benchmark",
        "total refresh-stall cycles": ", ".join(
            f"{name}={stall_summary[name]}"
            for name in PERF_POLICIES
            if name in stall_summary
        ),
        "reading": (
            "refresh overheads are sub-1% at this bank size, so mean-latency "
            "shifts are small; the stall column isolates the refresh-attributed "
            "queueing that VRL removes"
        ),
        "mean-latency caveat": (
            "under an open-page policy, frequent refreshes close rows and "
            "convert expensive row-buffer conflicts into cheaper misses, so "
            "the fixed policy can show *lower* mean latency on low-locality "
            "traces despite stalling 4-7x more — compare stalls, not means"
        ),
    }
    dropped = [bench for bench in names if bench not in complete_names]
    if dropped:
        notes["benchmarks dropped (failed cells)"] = ", ".join(dropped)
    return ExperimentResult(
        experiment_id="PERF",
        title="Request-latency impact of refresh policies (cycle-level engine)",
        headers=[
            "benchmark",
            "policy",
            "mean latency (cy)",
            "vs fixed",
            "refresh stalls",
            "row hits",
            "refresh ovh",
        ],
        rows=rows,
        notes=notes,
    ).merge_notes(report.notes())
