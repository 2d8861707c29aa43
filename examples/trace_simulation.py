#!/usr/bin/env python
"""Cycle-level trace simulation: performance impact of refresh policies.

Uses the full cycle-level bank simulator (not the fastpath) on a
server-style workload (``bgsave``) to show what the refresh overhead
means for demand requests: queueing behind refreshes, row-buffer
interference, and the refresh-power comparison the paper quotes.

The four policy runs are swept as one block of `repro.runner.Cell`s
through an `ExperimentRunner`: one runner invocation computes them
(sharing the memoized trace and retention profile across policies),
and with a result cache a re-run answers every cell from disk.

Run:  python examples/trace_simulation.py [--duration 0.25]
"""

import argparse

from repro import (
    DEFAULT_TECH,
    DRAMTiming,
    RefreshLatencyModel,
    RefreshPowerModel,
)
from repro.runner import Cell, ExperimentRunner
from repro.sim.stats import RefreshStats, RequestStats
from repro.technology import DEFAULT_GEOMETRY
from repro.workloads import PARSEC_WORKLOADS, TraceGenerator

POLICIES = ("fixed", "raidr", "vrl", "vrl-access")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=0.25,
                        help="seconds of simulated time (cycle-level; keep modest)")
    parser.add_argument("--benchmark", default="bgsave",
                        choices=sorted(PARSEC_WORKLOADS))
    parser.add_argument("--seed", type=int, default=2018)
    args = parser.parse_args()

    tech = DEFAULT_TECH
    timing = DRAMTiming.from_technology(tech)
    model = RefreshLatencyModel(tech)
    power = RefreshPowerModel(tech)
    full, partial = model.full_refresh(), model.partial_refresh()

    trace = TraceGenerator(
        PARSEC_WORKLOADS[args.benchmark], timing, DEFAULT_GEOMETRY, args.seed
    ).generate(args.duration)
    print(f"workload: {args.benchmark}  ({len(trace)} requests over "
          f"{1e3 * args.duration:.0f} ms, {trace.footprint_rows()} rows touched)\n")

    cells = [
        Cell.of(
            "engine-run",
            tech=tech,
            rows=DEFAULT_GEOMETRY.rows,
            cols=DEFAULT_GEOMETRY.cols,
            policy=name,
            benchmark=args.benchmark,
            seed=args.seed,
            duration_seconds=args.duration,
        )
        for name in POLICIES
    ]

    header = (f"{'policy':<12} {'refreshes':>9} {'partial%':>8} {'ovh%':>6} "
              f"{'mean lat':>8} {'hit%':>5} {'stall cy':>9} {'ref power':>10}")
    print(header)
    print("-" * len(header))
    report = ExperimentRunner().run(cells)
    for name, payload in zip(POLICIES, report.results):
        r = RefreshStats(**payload["refresh"])
        q = RequestStats(**payload["requests"])
        watts = power.refresh_power(r, full, partial)
        print(
            f"{name:<12} {r.total_refreshes:>9} {100 * r.partial_fraction:>7.1f}% "
            f"{100 * r.overhead:>5.2f}% {q.mean_latency_cycles:>8.2f} "
            f"{100 * q.row_hit_rate:>4.1f}% {q.refresh_stall_cycles:>9} "
            f"{1e6 * watts:>8.2f}uW"
        )


if __name__ == "__main__":
    main()
