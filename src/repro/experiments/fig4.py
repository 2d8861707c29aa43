"""FIG4: refresh performance overhead with real traces (Fig. 4 + power).

Per benchmark, the refresh overhead (cycles spent refreshing the bank)
of RAIDR, VRL, and VRL-Access, normalized to RAIDR; plus the DRAMPower-
style refresh power comparison the paper quotes alongside ("VRL-DRAM
reduces refresh power by 12% over RAIDR").

Paper headline numbers: VRL is 23% below RAIDR (application-
independent); VRL-Access averages 34% below RAIDR / 13% below VRL.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from ..model import RefreshLatencyModel, RefreshTiming
from ..power import RefreshPowerModel
from ..retention import RetentionProfiler
from ..runner import Cell, ExperimentRunner
from ..service import LocalClient
from ..sim.stats import RefreshStats
from ..technology import DEFAULT_GEOMETRY, DEFAULT_TECH, BankGeometry, TechnologyParams
from ..workloads import PARSEC_WORKLOADS
from .result import ExperimentResult

#: Policies compared in Fig. 4, in plot order.
FIG4_POLICIES = ("raidr", "vrl", "vrl-access")


@lru_cache(maxsize=8)
def _power_inputs(
    tech: TechnologyParams, geometry: BankGeometry
) -> tuple[RefreshPowerModel, RefreshTiming, RefreshTiming]:
    """The power model and the full/partial refresh timings it prices.

    Pure functions of the (frozen) tech and geometry, so a warm sweep
    reuses them instead of re-solving the latency model.
    """
    model = RefreshLatencyModel(tech, geometry)
    return RefreshPowerModel(tech, geometry), model.full_refresh(), model.partial_refresh()


def run_fig4(
    tech: TechnologyParams = DEFAULT_TECH,
    geometry: BankGeometry = DEFAULT_GEOMETRY,
    duration_seconds: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    nbits: int = 2,
    seed: int = RetentionProfiler.DEFAULT_SEED,
    include_power: bool = True,
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Run the full benchmark suite under the three policies.

    Args:
        tech: technology parameters.
        geometry: bank geometry (paper: 8192x32).
        duration_seconds: simulated time per benchmark (>= 1 s gives
            several 256 ms refresh generations).
        benchmarks: subset of benchmark names; defaults to all.
        nbits: VRL counter width.
        seed: retention-profiling / trace-generation seed.
        include_power: also compute the refresh power ratio.
        runner: experiment executor to sweep through; defaults to
            a serial, uncached one (results are identical for any
            runner configuration).
    """
    names = list(benchmarks) if benchmarks else list(PARSEC_WORKLOADS)
    for name in names:
        if name not in PARSEC_WORKLOADS:
            raise KeyError(
                f"unknown workload {name!r}; available: {list(PARSEC_WORKLOADS)}"
            )

    grid = [(policy, bench) for policy in FIG4_POLICIES for bench in names]
    cells = [
        Cell.of(
            "refresh-overhead",
            tech=tech,
            rows=geometry.rows,
            cols=geometry.cols,
            policy=policy,
            nbits=nbits,
            benchmark=bench,
            seed=seed,
            duration_seconds=duration_seconds,
        )
        for policy, bench in grid
    ]
    report = LocalClient(runner).sweep(cells, experiment="fig4")
    stats = {
        pair: RefreshStats(**payload)
        for pair, payload in zip(grid, report.results)
        if payload is not None  # failed cells carry no payload
    }

    # A benchmark's row needs all three policies (RAIDR is the
    # normalization base); benchmarks that lost a cell are dropped and
    # reported in the notes rather than aborting the sweep.
    complete_names = [
        bench
        for bench in names
        if all((policy, bench) in stats for policy in FIG4_POLICIES)
    ]
    rows = []
    normalized: dict[str, list[float]] = {p: [] for p in FIG4_POLICIES}
    for bench in complete_names:
        base = stats[("raidr", bench)].refresh_cycles
        values = []
        for policy_name in FIG4_POLICIES:
            ratio = stats[(policy_name, bench)].refresh_cycles / base
            normalized[policy_name].append(ratio)
            values.append(f"{ratio:.3f}")
        rows.append((bench, *values))

    notes = {}
    if complete_names:
        means = {p: float(np.mean(normalized[p])) for p in FIG4_POLICIES}
        rows.append(("MEAN", *(f"{means[p]:.3f}" for p in FIG4_POLICIES)))
        notes = {
            "VRL reduction vs RAIDR": f"{100 * (1 - means['vrl']):.1f}% (paper: 23%)",
            "VRL-Access reduction vs RAIDR": f"{100 * (1 - means['vrl-access']):.1f}% (paper: 34%)",
            "VRL-Access reduction vs VRL": (
                f"{100 * (1 - means['vrl-access'] / means['vrl']):.1f}% (paper: 13%)"
            ),
        }
    dropped = [bench for bench in names if bench not in complete_names]
    if dropped:
        notes["benchmarks dropped (failed cells)"] = ", ".join(dropped)

    if include_power and complete_names:
        power, full, partial = _power_inputs(tech, geometry)
        ratios = []
        for bench in complete_names:
            p_raidr = power.refresh_power(stats[("raidr", bench)], full, partial)
            p_vrl = power.refresh_power(stats[("vrl", bench)], full, partial)
            ratios.append(p_vrl / p_raidr)
        notes["VRL refresh-power reduction vs RAIDR"] = (
            f"{100 * (1 - float(np.mean(ratios))):.1f}% (paper: 12%)"
        )

    return ExperimentResult(
        experiment_id="FIG4",
        title="Refresh performance overhead with real traces (normalized to RAIDR)",
        headers=["benchmark", "RAIDR", "VRL", "VRL-Access"],
        rows=rows,
        notes=notes,
    ).merge_notes(report.notes())
