#!/usr/bin/env python
"""Extending the library: a custom refresh policy.

Implements **VRL-Temp**, a toy extension of the paper's future-work
direction: at high temperature DRAM leaks faster, so the controller
falls back to full refreshes when a (simulated) thermal sensor reports
a hot spell, and resumes partial refreshes when it cools down.

Shows the extension surface: subclass
:class:`~repro.controller.refresh.VRLAccessPolicy`, override
``refresh_row``, and drop the policy into the standard simulator —
nothing else changes.  Overriding only the scalar ``refresh_row`` /
``on_access`` is fully supported even though the simulators drive the
batch kernel (``decide`` / ``on_access_rows``): the kernel detects
scalar-only overrides and transparently falls back to looping them, so
this policy runs unmodified through the vectorized
:class:`~repro.sim.fastpath.RefreshOverheadEvaluator` below.  The same
detection picks the evaluator's pricing path: a policy like this one
reports ``supports_fused_timeline() == False``, so the evaluator prices
it with the round walk (:func:`~repro.sim.fastpath.round_walk`) instead
of mispricing the custom decisions with the fused timeline
(``tests/test_timeline_fused.py`` pins the results to the cycle-level
engine's).  The rank simulator, which prices with the fused timeline
only, refuses such a policy.  Policies that want the vectorized fast
surface override ``_decide_batch`` / ``_on_access_batch`` instead (see
``docs/architecture.md``).

Run:  python examples/custom_policy.py
"""

from repro import (
    DEFAULT_TECH,
    DRAMTiming,
    RefreshBinning,
    RefreshCommand,
    RefreshKind,
    RefreshOverheadEvaluator,
    RetentionProfiler,
    VRLAccessPolicy,
    build_policy,
)
from repro.controller import MECHANISMS
from repro.workloads import PARSEC_WORKLOADS, TraceGenerator


class VRLTempPolicy(VRLAccessPolicy):
    """VRL-Access with a thermal kill-switch for partial refreshes.

    ``hot_windows`` is a callable ``(refresh_index) -> bool``; while it
    reports hot, every refresh is issued full and the rcount budget is
    reset (conservative: the hot spell may have drained margin).
    """

    name = "vrl-temp"

    def __init__(self, *args, hot_windows=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._hot = hot_windows or (lambda index: False)
        self._refresh_index = 0

    def refresh_row(self, row: int) -> RefreshCommand:
        self._refresh_index += 1
        if self._hot(self._refresh_index):
            self.rcount.reset(row)
            return RefreshCommand(row, RefreshKind.FULL, self.tau_full)
        return super().refresh_row(row)


def _build_vrl_temp(tech, profile, binning, nbits):
    """Registry builder: standard MPRSF construction, custom policy class."""
    base = build_policy("vrl-access", tech, profile, binning, nbits=nbits)
    return VRLTempPolicy(
        binning,
        base.mprsf.values,
        tau_full=base.tau_full,
        tau_partial=base.tau_partial,
        nbits=base.nbits,
    )


# Registering makes the custom policy a first-class mechanism: it shows
# up in `vrl-dram mechanisms` / `--mechanisms` and builds through
# `build_policy("vrl-temp", ...)` like the in-tree ones.  `replace=True`
# keeps repeated imports of this example module idempotent.
MECHANISMS.register(
    "vrl-temp",
    _build_vrl_temp,
    description="VRL-Access with a thermal kill-switch (this example)",
    policy=VRLTempPolicy,
    replace=True,
)


def main() -> None:
    tech = DEFAULT_TECH
    timing = DRAMTiming.from_technology(tech)
    profile = RetentionProfiler().profile()
    binning = RefreshBinning().assign(profile)
    duration = timing.cycles(1.0)
    trace = TraceGenerator(PARSEC_WORKLOADS["facesim"], timing).generate(1.0)

    # Borrow the standard construction for the MPRSF table, then rebuild
    # as the custom policy.
    base = build_policy("vrl-access", tech, profile, binning)

    # The chip is "hot" for every third stretch of 10k refreshes.
    def hot(index: int) -> bool:
        return (index // 10_000) % 3 == 2

    custom = VRLTempPolicy(
        binning,
        base.mprsf.values,
        tau_full=base.tau_full,
        tau_partial=base.tau_partial,
        nbits=base.nbits,
        hot_windows=hot,
    )

    results = {}
    for policy in (build_policy("raidr", tech, profile, binning), base, custom):
        stats = RefreshOverheadEvaluator(policy, timing).evaluate(duration, trace)
        results[policy.name] = stats

    base_cycles = results["raidr"].refresh_cycles
    print(f"{'policy':<12} {'refresh cycles':>14} {'vs RAIDR':>9} {'partial %':>9}")
    for name, stats in results.items():
        print(
            f"{name:<12} {stats.refresh_cycles:>14} "
            f"{stats.refresh_cycles / base_cycles:>9.3f} "
            f"{100 * stats.partial_fraction:>8.1f}%"
        )
    print("\nVRL-Temp gives up part of the benefit during hot spells but keeps")
    print("the rest — the policy interface makes such variants one subclass away.")


if __name__ == "__main__":
    main()
