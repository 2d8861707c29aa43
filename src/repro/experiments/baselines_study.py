"""BASE: refresh-mechanism baseline comparison (extension).

Places VRL-DRAM in the wider refresh-optimization landscape (Bhati et
al. [1]): the industry's DDR4 Fine-Granularity Refresh slices commands
(shorter blocking windows, *more* total refresh time because tRFC
shrinks sub-linearly), RAIDR thins the schedule, VRL truncates the
operations, VRL-Access exploits accesses.  All six mechanisms evaluated
on the same bank and trace, reporting total refresh cycles and the
longest single blocking window.
"""

from __future__ import annotations

from typing import Optional

from ..retention import RetentionProfiler
from ..runner import Cell, ExperimentRunner
from ..service import LocalClient
from ..technology import DEFAULT_GEOMETRY, DEFAULT_TECH, BankGeometry, TechnologyParams
from .result import ExperimentResult

#: Mechanisms compared, in presentation order.
BASELINE_MECHANISMS = (
    "fixed-64ms",
    "fgr-2x",
    "fgr-4x",
    "raidr",
    "vrl",
    "vrl-access",
)


def run_baseline_comparison(
    tech: TechnologyParams = DEFAULT_TECH,
    geometry: BankGeometry = DEFAULT_GEOMETRY,
    duration_seconds: float = 1.0,
    benchmark: Optional[str] = "canneal",
    seed: int = RetentionProfiler.DEFAULT_SEED,
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Compare six refresh mechanisms on one workload.

    Args:
        tech: technology parameters.
        geometry: bank geometry.
        duration_seconds: simulated time.
        benchmark: workload name for the access-aware policies; ``None``
            runs refresh-only.
        seed: profiling / trace seed.
        runner: experiment executor to sweep through; defaults to
            a serial, uncached one.
    """
    cells = [
        Cell.of(
            "baseline-mechanism",
            tech=tech,
            rows=geometry.rows,
            cols=geometry.cols,
            mechanism=mechanism,
            benchmark=benchmark,
            seed=seed,
            duration_seconds=duration_seconds,
        )
        for mechanism in BASELINE_MECHANISMS
    ]
    report = LocalClient(runner).sweep(cells, experiment="baselines")

    descriptions = {
        "fixed-64ms": "conventional JEDEC 1x",
        "fgr-2x": "DDR4 FGR: 2x rate, ~0.62x tRFC per op",
        "fgr-4x": "DDR4 FGR: 4x rate, ~0.38x tRFC per op",
        "raidr": "retention-binned schedule [27]",
        "vrl": "binned schedule + truncated operations (the paper)",
        "vrl-access": "+ access-aware counter resets (the paper)",
    }

    rows = []
    baseline_cycles = None
    dropped = []
    for mechanism, payload in zip(BASELINE_MECHANISMS, report.results):
        if payload is None:  # cell failed every attempt
            dropped.append(mechanism)
            continue
        if baseline_cycles is None:
            baseline_cycles = payload["refresh_cycles"]
        rows.append(
            (
                payload["name"],
                payload["refresh_cycles"],
                f"{payload['refresh_cycles'] / baseline_cycles:.3f}",
                payload["longest_op_cycles"],
                descriptions.get(payload["name"], ""),
            )
        )

    return ExperimentResult(
        experiment_id="BASE",
        title=f"Refresh-mechanism comparison ({benchmark or 'refresh-only'}, "
        f"{duration_seconds:g} s)",
        headers=[
            "mechanism",
            "refresh cycles",
            "vs fixed",
            "longest op (cy)",
            "",
        ],
        rows=rows,
        notes={
            "FGR trade-off": (
                "fine granularity shortens each blocking window but *raises* total "
                "refresh time (tRFC shrinks sub-linearly with slice count)"
            ),
            "VRL trade-off": (
                "truncation shortens most operations without adding any — the two "
                "approaches are orthogonal and could compose"
            ),
            **(
                {"mechanisms dropped (failed cells)": ", ".join(dropped)}
                if dropped
                else {}
            ),
        },
    ).merge_notes(report.notes())
