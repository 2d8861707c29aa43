"""Shared helpers of the refresh-evaluation benchmarks.

Hosts the scalar reference implementation and the work-unit accounting
used by both ``test_bench_kernel.py`` and ``test_bench_timeline.py``,
plus the ``BENCH_timeline.json`` recorder: every throughput benchmark
merges its numbers into that one committed file so the performance
trajectory of the evaluation stack (scalar → round walk → fused)
stays visible across PRs (see ROADMAP.md).
"""

import json
from pathlib import Path

import numpy as np

from repro.sim import DRAMTiming
from repro.sim.schedule import deadline_counts, first_deadlines, period_cycles
from repro.sim.stats import RefreshStats
from repro.technology import DEFAULT_TECH

TIMING = DRAMTiming.from_technology(DEFAULT_TECH)

#: The committed benchmark-trajectory file (rows·intervals per second).
BENCH_TIMELINE_JSON = Path(__file__).parent / "BENCH_timeline.json"

#: The committed serving-layer trajectory file (queries per second).
BENCH_SERVICE_JSON = Path(__file__).parent / "BENCH_service.json"

#: The committed calibration trajectory file (lanes per second).
BENCH_CALIBRATION_JSON = Path(__file__).parent / "BENCH_calibration.json"

#: The committed mechanism-matrix trajectory file (row-intervals / cells per second).
BENCH_MECHANISMS_JSON = Path(__file__).parent / "BENCH_mechanisms.json"


def scalar_reference(policy, timing, duration_cycles):
    """The pre-refactor fastpath: one ``refresh_row`` call per deadline."""
    policy.reset()
    stats = RefreshStats(duration_cycles=duration_cycles)
    n = policy.n_rows
    for row in range(n):
        period = timing.cycles(policy.row_period(row))
        first_due = (row * period) // n
        if first_due >= duration_cycles:
            continue
        dues = np.arange(first_due, duration_cycles, period, dtype=np.int64)
        for _ in range(len(dues)):
            command = policy.refresh_row(row)
            stats.refresh_cycles += command.latency_cycles
            if command.kind.value == "full":
                stats.full_refreshes += 1
            else:
                stats.partial_refreshes += 1
    return stats


def row_intervals(policy, duration_cycles):
    """Total refresh deadlines the evaluation walks (the work unit)."""
    periods = period_cycles(policy, TIMING)
    return int(
        deadline_counts(first_deadlines(periods), periods, duration_cycles).sum()
    )


def record_timeline_bench(section, entry):
    """Merge one benchmark's numbers into ``BENCH_timeline.json``.

    ``section`` keys the benchmark (e.g. a policy name); ``entry`` is a
    JSON-serializable mapping.  Existing sections from other benchmarks
    are preserved so kernel and timeline runs share the file.
    """
    _merge_bench(BENCH_TIMELINE_JSON, section, entry)


def record_service_bench(section, entry):
    """Merge one serving benchmark's numbers into ``BENCH_service.json``."""
    _merge_bench(BENCH_SERVICE_JSON, section, entry)


def record_calibration_bench(section, entry):
    """Merge one calibration benchmark's numbers into ``BENCH_calibration.json``."""
    _merge_bench(BENCH_CALIBRATION_JSON, section, entry)


def record_mechanisms_bench(section, entry):
    """Merge one mechanism benchmark's numbers into ``BENCH_mechanisms.json``."""
    _merge_bench(BENCH_MECHANISMS_JSON, section, entry)


def _merge_bench(path, section, entry):
    data = {}
    if path.is_file():
        data = json.loads(path.read_text())
    data[section] = entry
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
