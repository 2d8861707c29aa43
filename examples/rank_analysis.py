#!/usr/bin/env python
"""Rank-level analysis + analytic VRL-Access prediction.

Two analyses a memory-controller architect would run:

1. **Rank view** — how the refresh modes compare when all 8 banks of a
   rank are simulated together (JEDEC all-bank REF vs row-targeted
   per-bank schedules), including the rank blocked-time trade-off.
2. **Prediction without simulation** — measure a workload's
   per-refresh-window row coverage, feed it to the closed-form Markov
   model of Algorithm 1 (`repro.sim.predicted_full_fraction`), and
   compare the predicted VRL-Access refresh rate against an actual
   simulation.

Run:  python examples/rank_analysis.py
"""

import numpy as np

from repro import (
    DEFAULT_TECH,
    DRAMTiming,
    RefreshBinning,
    RefreshOverheadEvaluator,
    RetentionProfiler,
    build_policy,
)
from repro.experiments import run_rank_comparison
from repro.runner import ExperimentRunner
from repro.sim import predict_vrl_access_cycles, predicted_full_fraction, window_coverage
from repro.technology import BankGeometry
from repro.workloads import PARSEC_WORKLOADS, TraceGenerator


def rank_view() -> None:
    print("== 8-bank rank: refresh mode comparison ==")
    # The sweep drivers execute through an ExperimentRunner; sharing
    # one across several studies shares its cache, worker count and
    # manifests.
    runner = ExperimentRunner()
    result = run_rank_comparison(
        geometry=BankGeometry(512, 32), n_banks=8, duration_seconds=0.3,
        runner=runner,
    )
    print(result.format())
    print()


def coverage_prediction() -> None:
    print("== predicting VRL-Access from window coverage (no simulation) ==")
    tech = DEFAULT_TECH
    timing = DRAMTiming.from_technology(tech)
    profile = RetentionProfiler().profile()
    binning = RefreshBinning().assign(profile)
    duration = timing.cycles(1.0)

    print(f"{'benchmark':<14} {'mean coverage':>13} {'predicted cy/s':>14} "
          f"{'simulated cy/s':>14} {'error':>6}")
    for name in ("swaptions", "freqmine", "canneal", "bgsave"):
        policy = build_policy("vrl-access", tech, profile, binning)
        trace = TraceGenerator(PARSEC_WORKLOADS[name], timing).generate(1.0)
        simulated = RefreshOverheadEvaluator(policy, timing).evaluate(duration, trace)
        policy.reset()
        coverage = window_coverage(trace, policy, timing, duration)
        predicted = predict_vrl_access_cycles(
            policy.mprsf.values, coverage, binning.row_period,
            policy.tau_partial, policy.tau_full,
        )
        simulated_rate = simulated.refresh_cycles / (duration * tech.tck_ctrl)
        error = abs(predicted - simulated_rate) / simulated_rate
        print(f"{name:<14} {coverage.mean():>13.3f} {predicted:>14.0f} "
              f"{simulated_rate:>14.0f} {100 * error:>5.1f}%")

    print("\nThe Markov chain behind the prediction (full-refresh fraction")
    print("of a row with MPRSF=3, vs its window coverage):")
    for c in (0.0, 0.25, 0.5, 0.75, 1.0):
        print(f"  coverage {c:.2f} -> full fraction {predicted_full_fraction(3, c):.3f}")


def main() -> None:
    rank_view()
    coverage_prediction()


if __name__ == "__main__":
    main()
