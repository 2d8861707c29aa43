"""Throughput of the rival mechanisms and the head-to-head matrix.

Two trajectories, both recorded into the committed
``BENCH_mechanisms.json``:

* **refresh evaluation** — each new mechanism (DARP, ChargeCache,
  AVATAR) evaluated through the default
  :class:`~repro.sim.fastpath.RefreshOverheadEvaluator` (the fused
  timeline; the registry refactor must keep all three fused-priceable)
  vs the pre-refactor scalar per-row loop, in row-intervals per
  second.  Acceptance floor is the kernel bar: >= 5x over scalar,
  statistics identical.
* **matrix serving** — the ``vrl-dram mechanisms`` driver's grid of
  ``mechanism-matrix`` cells through a bare runner, in cells per
  second.  Since ``BankSimulator.run`` prices a run as one merged busy
  chain instead of an event loop, ChargeCache's per-request latency
  hook is most of what is left.  The floor sits above what the
  per-event engine reached (24-52 cells/s), at under half of the
  merged chain's rate (170-215 cells/s on a 2-vCPU host where the
  per-event engine ran at 24-26).
"""

import time

from bench_utils import (
    TIMING,
    record_mechanisms_bench,
    row_intervals,
    scalar_reference,
)
import pytest

from repro.controller import MECHANISMS
from repro.experiments import run_mechanism_matrix
from repro.technology import DEFAULT_TECH, BankGeometry

DURATION_SECONDS = 1.0

#: Matrix bench shape: 4 mechanisms x 1 workload x 2 temperatures.
MATRIX_MECHANISMS = ("fixed", "darp", "chargecache", "avatar")
MATRIX_CELLS = len(MATRIX_MECHANISMS) * 2

#: Floor, matrix cells/s: a per-event engine loop, a lost batch or a
#: per-cell service respawn all fall below it.
FLOOR_CELLS = 80.0


class TestMechanismEvaluationThroughput:
    @pytest.mark.parametrize("mechanism", ["darp", "chargecache", "avatar"])
    def test_fused_evaluation_speedup(
        self, benchmark, paper_profile, paper_binning, mechanism
    ):
        """Every rival evaluates >= 5x over the scalar loop, stats identical."""
        from repro.sim import RefreshOverheadEvaluator

        policy = MECHANISMS.build(mechanism, DEFAULT_TECH, paper_profile, paper_binning)
        duration_cycles = TIMING.cycles(DURATION_SECONDS)
        intervals = row_intervals(policy, duration_cycles)
        evaluator = RefreshOverheadEvaluator(policy, TIMING)

        fast = benchmark.pedantic(
            evaluator.evaluate, args=(duration_cycles,), rounds=3, iterations=1
        )

        start = time.perf_counter()
        scalar = scalar_reference(policy, TIMING, duration_cycles)
        scalar_seconds = time.perf_counter() - start

        assert (fast.full_refreshes, fast.partial_refreshes, fast.refresh_cycles) == (
            scalar.full_refreshes,
            scalar.partial_refreshes,
            scalar.refresh_cycles,
        )

        try:
            fast_seconds = benchmark.stats["mean"]
        except TypeError:  # --benchmark-disable: stats unavailable, time directly
            start = time.perf_counter()
            evaluator.evaluate(duration_cycles)
            fast_seconds = time.perf_counter() - start
        speedup = scalar_seconds / fast_seconds
        benchmark.extra_info["row_intervals"] = intervals
        benchmark.extra_info["speedup_vs_scalar"] = speedup
        record_mechanisms_bench(
            f"mechanisms/{mechanism}",
            {
                "row_intervals": intervals,
                "row_intervals_per_s": {
                    "scalar": intervals / scalar_seconds,
                    "evaluator_default": intervals / fast_seconds,
                },
                "speedup_vs_scalar": speedup,
            },
        )
        print(
            f"\n{mechanism}: {intervals} row-intervals — "
            f"fused {intervals / fast_seconds:,.0f}/s, "
            f"scalar {intervals / scalar_seconds:,.0f}/s, "
            f"speedup {speedup:.1f}x"
        )
        assert speedup >= 5.0


class TestMatrixThroughput:
    def test_matrix_cells_per_second(self, benchmark):
        """The head-to-head grid through the service path, cells/s."""
        geometry = BankGeometry(256, 16)

        def run():
            return run_mechanism_matrix(
                geometry=geometry,
                mechanisms=MATRIX_MECHANISMS,
                benchmarks=("blackscholes",),
                temperatures=(45.0, 85.0),
                duration_seconds=0.05,
                seed=5,
            )

        result = benchmark.pedantic(run, rounds=3, iterations=1)
        assert len(result.rows) == MATRIX_CELLS

        try:
            seconds = benchmark.stats["mean"]
        except TypeError:  # --benchmark-disable
            start = time.perf_counter()
            run()
            seconds = time.perf_counter() - start
        cells_per_s = MATRIX_CELLS / seconds
        benchmark.extra_info["cells_per_s"] = cells_per_s
        record_mechanisms_bench(
            "mechanisms/matrix",
            {
                "n_cells": MATRIX_CELLS,
                "cells_per_s": cells_per_s,
                "grid": "4 mechanisms x 1 workload x 2 temperatures, 256r bank",
            },
        )
        print(f"\nmatrix: {MATRIX_CELLS} cells — {cells_per_s:,.1f} cells/s")
        assert cells_per_s >= FLOOR_CELLS
