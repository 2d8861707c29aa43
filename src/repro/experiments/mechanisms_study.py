"""MECH: head-to-head mechanism matrix (extension).

The baseline comparison (:mod:`~repro.experiments.baselines_study`)
ranks mechanisms on one workload by refresh time alone.  This study is
the full head-to-head: every mechanism of the
:data:`~repro.controller.MECHANISMS` registry against a grid of
workloads × operating temperatures × bank capacities, on the
cycle-level engine, reporting *both* sides of the trade —
refresh-cycle totals (what RAIDR/AVATAR/VRL optimize) and demand-side
read latency / refresh stalls (what DARP and ChargeCache optimize).

Every matrix point is one ``mechanism-matrix`` query, so the sweep
caches and distributes like every other experiment, and the driver is
bit-identical to a raw runner run of the same cells (invariant 13).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..controller import MECHANISMS
from ..retention import RetentionProfiler
from ..runner import Cell, ExperimentRunner
from ..service import LocalClient
from ..technology import DEFAULT_GEOMETRY, DEFAULT_TECH, BankGeometry, TechnologyParams
from .result import ExperimentResult

#: Mechanisms of the default matrix, in presentation order: the
#: conventional baseline, the schedule thinners, the rivals from other
#: papers, then the paper's own mechanisms.
MATRIX_MECHANISMS = (
    "fixed",
    "raidr",
    "darp",
    "chargecache",
    "avatar",
    "vrl",
    "vrl-access",
)

#: Default workload axis: one light and one refresh-hostile PARSEC mix.
MATRIX_BENCHMARKS = ("blackscholes", "canneal")

#: Default operating-temperature axis (degC): nominal and worst-case.
MATRIX_TEMPERATURES = (45.0, 85.0)


def run_mechanism_matrix(
    tech: TechnologyParams = DEFAULT_TECH,
    geometry: BankGeometry = DEFAULT_GEOMETRY,
    mechanisms: Sequence[str] = MATRIX_MECHANISMS,
    benchmarks: Sequence[str] = MATRIX_BENCHMARKS,
    temperatures: Sequence[float] = MATRIX_TEMPERATURES,
    row_counts: Optional[Sequence[int]] = None,
    duration_seconds: float = 0.2,
    nbits: int = 2,
    seed: int = RetentionProfiler.DEFAULT_SEED,
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Run the mechanisms × workloads × temperatures matrix.

    Args:
        tech: technology parameters.
        geometry: bank geometry; its column count is shared by every
            capacity point.
        mechanisms: registry names to compare; every name must be
            registered in :data:`~repro.controller.MECHANISMS`.
        benchmarks: workload axis.
        temperatures: operating-temperature axis (degC).
        row_counts: capacity axis (rows per bank); defaults to the
            single ``geometry.rows`` point.
        duration_seconds: simulated time per point (cycle-level engine
            — keep it modest).
        nbits: VRL counter width.
        seed: profiling / trace seed.
        runner: experiment executor to sweep through; defaults to
            a serial, uncached one.
    """
    unknown = [name for name in mechanisms if name not in MECHANISMS]
    if unknown:
        raise ValueError(
            f"unknown mechanisms: {', '.join(sorted(unknown))}; "
            f"registered: {', '.join(MECHANISMS.names())}"
        )
    mechanisms = tuple(mechanisms)
    benchmarks = tuple(benchmarks)
    temperatures = tuple(float(t) for t in temperatures)
    row_counts = (
        (geometry.rows,) if row_counts is None else tuple(row_counts)
    )
    if not benchmarks or not temperatures or not row_counts:
        raise ValueError(
            "need at least one benchmark, one temperature, and one capacity"
        )

    grid = [
        (benchmark, temperature, rows, mechanism)
        for benchmark in benchmarks
        for temperature in temperatures
        for rows in row_counts
        for mechanism in mechanisms
    ]
    cells = [
        Cell.of(
            "mechanism-matrix",
            tech=tech,
            rows=rows,
            cols=geometry.cols,
            mechanism=mechanism,
            nbits=nbits,
            benchmark=benchmark,
            temperature=temperature,
            seed=seed,
            duration_seconds=duration_seconds,
        )
        for benchmark, temperature, rows, mechanism in grid
    ]
    report = LocalClient(runner).sweep(cells, experiment="mechanisms")

    descriptions = {info.name: info.description for info in MECHANISMS.describe()}
    rows = []
    dropped = []
    baseline: dict[tuple[str, float, int], dict] = {}
    for (benchmark, temperature, n_rows, mechanism), payload in zip(
        grid, report.results
    ):
        if payload is None:  # cell failed every attempt
            dropped.append(f"{mechanism}/{benchmark}/{temperature:g}C/{n_rows}r")
            continue
        group = (benchmark, temperature, n_rows)
        if group not in baseline:
            baseline[group] = payload
        base = baseline[group]
        refresh_cycles = payload["refresh"]["refresh_cycles"]
        base_cycles = base["refresh"]["refresh_cycles"]
        requests = payload["requests"]
        n_requests = requests["n_requests"]
        mean_latency = (
            requests["total_latency_cycles"] / n_requests if n_requests else 0.0
        )
        rows.append(
            (
                payload["name"],
                benchmark,
                f"{temperature:g}",
                n_rows,
                refresh_cycles,
                f"{refresh_cycles / base_cycles:.3f}" if base_cycles else "n/a",
                f"{mean_latency:.2f}",
                requests["refresh_stall_cycles"],
                descriptions.get(mechanism, ""),
            )
        )

    return ExperimentResult(
        experiment_id="MECH",
        title=(
            f"Mechanism matrix ({len(mechanisms)} mechanisms x "
            f"{len(benchmarks)} workloads x {len(temperatures)} temperatures x "
            f"{len(row_counts)} capacities, {duration_seconds:g} s engine runs)"
        ),
        headers=[
            "mechanism",
            "workload",
            "degC",
            "rows",
            "refresh cycles",
            "vs fixed",
            "mean req latency (cy)",
            "refresh stalls (cy)",
            "",
        ],
        rows=rows,
        notes={
            "two-sided metric": (
                "refresh cycles measure the schedule (RAIDR/AVATAR/VRL win); "
                "mean request latency and refresh stalls measure the demand "
                "side (DARP/ChargeCache win) — mechanisms are complementary, "
                "not interchangeable"
            ),
            "baseline": (
                "'vs fixed' normalizes refresh cycles to the first mechanism "
                "of each (workload, temperature, capacity) group"
            ),
            **(
                {"points dropped (failed cells)": ", ".join(dropped)}
                if dropped
                else {}
            ),
        },
    ).merge_notes(report.notes())
