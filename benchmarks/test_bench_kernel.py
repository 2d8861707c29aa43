"""Micro-benchmark of the vectorized policy kernel vs the scalar path.

Measures fastpath refresh-evaluation throughput in **row-intervals per
second** on the Fig. 4 default bank (8192x32, 1 s of simulated time)
and compares the default evaluator (now the fused timeline) against a
reference re-implementation of the pre-refactor per-row scalar loop.
The acceptance bar for the kernel refactor is >= 5x; the assertion
here keeps the speedup visible in the benchmark trajectory, recorded
both in ``extra_info`` and in the committed ``BENCH_timeline.json``
(see ``test_bench_timeline.py`` for the per-strategy breakdown).
"""

import time

import pytest

from bench_utils import (
    TIMING,
    record_timeline_bench,
    row_intervals,
    scalar_reference,
)
from repro.controller import build_policy
from repro.sim import RefreshOverheadEvaluator
from repro.technology import DEFAULT_TECH

DURATION_SECONDS = 1.0


class TestKernelThroughput:
    @pytest.mark.parametrize("policy_name", ["raidr", "vrl", "vrl-access"])
    def test_vectorized_kernel_speedup(
        self, benchmark, paper_profile, paper_binning, policy_name
    ):
        """Kernel >= 5x over the scalar per-row loop, stats identical."""
        policy = build_policy(policy_name, DEFAULT_TECH, paper_profile, paper_binning)
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
            kernel_seconds = benchmark.stats["mean"]
        except TypeError:  # --benchmark-disable: stats unavailable, time directly
            start = time.perf_counter()
            evaluator.evaluate(duration_cycles)
            kernel_seconds = time.perf_counter() - start
        speedup = scalar_seconds / kernel_seconds
        benchmark.extra_info["row_intervals"] = intervals
        benchmark.extra_info["kernel_row_intervals_per_s"] = intervals / kernel_seconds
        benchmark.extra_info["scalar_row_intervals_per_s"] = intervals / scalar_seconds
        benchmark.extra_info["speedup_vs_scalar"] = speedup
        record_timeline_bench(
            f"kernel/{policy_name}",
            {
                "row_intervals": intervals,
                "row_intervals_per_s": {
                    "scalar": intervals / scalar_seconds,
                    "evaluator_default": intervals / kernel_seconds,
                },
                "speedup_vs_scalar": speedup,
            },
        )
        print(
            f"\n{policy_name}: {intervals} row-intervals — "
            f"kernel {intervals / kernel_seconds:,.0f}/s, "
            f"scalar {intervals / scalar_seconds:,.0f}/s, "
            f"speedup {speedup:.1f}x"
        )
        assert speedup >= 5.0
