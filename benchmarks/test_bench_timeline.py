"""Per-backend throughput of the fused timeline (the PR's tentpole bar).

Measures warm-evaluator refresh-evaluation throughput in
**row-intervals per second** on the Fig. 4 default bank (8192x32, 1 s
of simulated time) for every evaluation strategy side by side:

* ``scalar`` — the pre-refactor per-row ``refresh_row`` loop;
* ``loop`` — the PR 3 round walk (one batched ``decide`` per round);
* ``fused`` — the fused ndarray timeline (numpy kernels).

Asserts the tentpole acceptance bar — fused >= 10x the round walk on a
warm evaluator, statistics bit-identical across all strategies — and
merges every number into the committed ``BENCH_timeline.json`` so the
trajectory stays comparable across PRs.
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

#: Warm evaluator backends timed side by side.
TIMED_BACKENDS = ("loop", "fused")

#: Acceptance floors for fused-vs-round-walk speedup.  The tentpole's
#: >= 10x bar is pinned on the VRL policies (the paper's headline,
#: counter-driven cadences); RAIDR's round walk is cheaper per round
#: (every decision is a full refresh, no counter updates), so its
#: fused advantage is structurally smaller and gets a safety margin
#: against timer noise instead of the headline bar.
SPEEDUP_FLOORS = {"raidr": 5.0, "vrl": 10.0, "vrl-access": 10.0}


def _best_of(fn, rounds):
    """Minimum wall-clock of ``rounds`` calls (steady-state estimate)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


class TestTimelineThroughput:
    @pytest.mark.parametrize("policy_name", ["raidr", "vrl", "vrl-access"])
    def test_fused_timeline_speedup(
        self, benchmark, paper_profile, paper_binning, policy_name
    ):
        """Fused clears its speedup floor, all strategies bit-identical."""
        policy = build_policy(policy_name, DEFAULT_TECH, paper_profile, paper_binning)
        duration_cycles = TIMING.cycles(DURATION_SECONDS)
        intervals = row_intervals(policy, duration_cycles)

        start = time.perf_counter()
        stats = {"scalar": scalar_reference(policy, TIMING, duration_cycles)}
        seconds = {"scalar": time.perf_counter() - start}

        evaluators = {
            backend: RefreshOverheadEvaluator(policy, TIMING, backend=backend)
            for backend in TIMED_BACKENDS
        }
        for backend, evaluator in evaluators.items():
            evaluator.evaluate(duration_cycles)  # warm: compile + caches
            rounds = 3 if backend == "loop" else 15
            seconds[backend], stats[backend] = _best_of(
                lambda e=evaluator: e.evaluate(duration_cycles), rounds
            )

        reference = stats["scalar"]
        for backend, got in stats.items():
            assert (
                got.full_refreshes, got.partial_refreshes, got.refresh_cycles
            ) == (
                reference.full_refreshes,
                reference.partial_refreshes,
                reference.refresh_cycles,
            ), f"backend {backend!r} diverged from the scalar walk"

        # pytest-benchmark record of the headline (fused) strategy.
        benchmark.pedantic(
            evaluators["fused"].evaluate, args=(duration_cycles,),
            rounds=5, iterations=1,
        )

        throughput = {
            backend: intervals / elapsed for backend, elapsed in seconds.items()
        }
        speedup = seconds["loop"] / seconds["fused"]
        benchmark.extra_info["row_intervals"] = intervals
        benchmark.extra_info["speedup_fused_vs_loop"] = speedup
        for backend, rate in throughput.items():
            benchmark.extra_info[f"{backend}_row_intervals_per_s"] = rate
        record_timeline_bench(
            f"timeline/{policy_name}",
            {
                "row_intervals": intervals,
                "row_intervals_per_s": throughput,
                "speedup_fused_vs_loop": speedup,
            },
        )
        print(
            f"\n{policy_name}: {intervals} row-intervals — "
            + ", ".join(
                f"{backend} {rate:,.0f}/s" for backend, rate in throughput.items()
            )
            + f", fused vs loop {speedup:.1f}x"
        )
        assert speedup >= SPEEDUP_FLOORS[policy_name]
