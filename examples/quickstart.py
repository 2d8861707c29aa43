#!/usr/bin/env python
"""Quickstart: the VRL-DRAM pipeline in ~40 lines.

Walks the whole paper in one script:

1. compute the full/partial refresh latencies from the analytical model
   (Sec. 2-3.1);
2. profile a bank's retention and bin it RAIDR-style (Fig. 3);
3. build the VRL-Access policy (Algorithm 1);
4. simulate a memory trace and report the refresh overhead vs RAIDR
   (Fig. 4's metric).

Run:  python examples/quickstart.py
"""

from repro import (
    DEFAULT_TECH,
    DRAMTiming,
    RefreshBinning,
    RefreshLatencyModel,
    RefreshOverheadEvaluator,
    RetentionProfiler,
    build_policy,
)
from repro.workloads import PARSEC_WORKLOADS, TraceGenerator


def main() -> None:
    tech = DEFAULT_TECH

    # 1. Refresh latencies from the circuit-level analytical model.
    model = RefreshLatencyModel(tech)
    partial, full = model.partial_refresh(), model.full_refresh()
    print(f"tau_partial: {partial}")
    print(f"tau_full:    {full}")
    print(f"latency saved per partial refresh: "
          f"{100 * (1 - partial.total_cycles / full.total_cycles):.0f}%\n")

    # 2. Retention profile + RAIDR binning of the paper's 8192x32 bank.
    profile = RetentionProfiler().profile()
    binning = RefreshBinning().assign(profile)
    print("rows per refresh period (Fig. 3b):")
    for period, count in binning.counts().items():
        print(f"  {1e3 * period:5.0f} ms: {count} rows")
    print()

    # 3. Policies: RAIDR baseline and VRL-Access.
    timing = DRAMTiming.from_technology(tech)
    raidr = build_policy("raidr", tech, profile, binning)
    vrl_access = build_policy("vrl-access", tech, profile, binning)

    # 4. One second of the canneal workload.
    trace = TraceGenerator(PARSEC_WORKLOADS["canneal"], timing).generate(1.0)
    duration = timing.cycles(1.0)
    base = RefreshOverheadEvaluator(raidr, timing).evaluate(duration, trace)
    ours = RefreshOverheadEvaluator(vrl_access, timing).evaluate(duration, trace)

    print("canneal, 1 s simulated:")
    print(f"  RAIDR      refresh cycles: {base.refresh_cycles:>9}  "
          f"(overhead {100 * base.overhead:.2f}%)")
    print(f"  VRL-Access refresh cycles: {ours.refresh_cycles:>9}  "
          f"(overhead {100 * ours.overhead:.2f}%, "
          f"{100 * ours.partial_fraction:.0f}% of refreshes partial)")
    print(f"  reduction: {100 * (1 - ours.refresh_cycles / base.refresh_cycles):.1f}% "
          f"(paper reports 34% on average)")

    # 5. The same comparison as two sweep cells — what the sweep
    #    drivers hand to their experiment runner.
    from repro.runner import Cell, ExperimentRunner

    cells = [
        Cell.of("refresh-overhead", tech=tech, rows=8192, cols=32,
                policy=name, benchmark="canneal", duration_seconds=1.0)
        for name in ("raidr", "vrl-access")
    ]
    report = ExperimentRunner().run(cells)
    swept = [payload["refresh_cycles"] for payload in report.results]
    print(f"\nvia the experiment runner: RAIDR {swept[0]} vs VRL-Access {swept[1]} "
          f"refresh cycles (cacheable and bit-reproducible)")


if __name__ == "__main__":
    main()
