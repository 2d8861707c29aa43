#!/usr/bin/env python
"""Extending the library: a custom refresh policy.

Implements **VRL-Temp**, a toy extension of the paper's future-work
direction: at high temperature DRAM leaks faster, so the controller
gives up partial refreshes on the rows of a hot region (say, the rows
over a thermal hotspot of the die) and refreshes them fully at every
deadline, while the rest of the bank keeps running VRL-Access.

Shows the extension surface.  A policy states its refresh decisions
once, in two forms written together in one class body: the kernel hook
``_decide_batch`` (the vectorized Algorithm 1 the tests' oracle drives)
and ``timeline_spec``, the same automaton in closed form
(:class:`~repro.controller.refresh.TimelineSpec`), which is what the
simulators price — the :class:`~repro.sim.fastpath.RefreshOverheadEvaluator`
below, the bank engine and the rank simulator.  Here a hot row's
cadence is one crossing long (``cycle_len = 1``, ``phase = 0``): every
refresh is full.  Defining a kernel hook without ``timeline_spec`` in the
same class body, or overriding a wrapper such as ``refresh_row``, is
refused with a ``TypeError`` when the class is created
(``docs/architecture.md``, "The policy kernel").

Run:  python examples/custom_policy.py
"""

from dataclasses import replace

import numpy as np

from repro import (
    DEFAULT_TECH,
    DRAMTiming,
    RefreshBinning,
    RefreshOverheadEvaluator,
    RetentionProfiler,
    VRLAccessPolicy,
    build_policy,
)
from repro.controller import KIND_FULL, MECHANISMS
from repro.workloads import PARSEC_WORKLOADS, TraceGenerator


def hot_region(n_rows: int, fraction: float = 0.25) -> np.ndarray:
    """Row mask of the hot region: the last ``fraction`` of the bank."""
    mask = np.zeros(n_rows, dtype=bool)
    mask[n_rows - int(n_rows * fraction):] = True
    return mask


class VRLTempPolicy(VRLAccessPolicy):
    """VRL-Access with partial refreshes switched off in a hot region.

    ``hot_rows`` is a boolean mask over the bank's rows (default: no
    row is hot).  A hot row gets a full refresh at every deadline and
    keeps its ``rcount`` budget at zero; every other row runs
    VRL-Access unchanged.
    """

    name = "vrl-temp"

    def __init__(self, *args, hot_rows=None, **kwargs):
        super().__init__(*args, **kwargs)
        if hot_rows is None:
            hot_rows = np.zeros(self.n_rows, dtype=bool)
        self.hot_rows = np.asarray(hot_rows, dtype=bool)
        if self.hot_rows.shape != (self.n_rows,):
            raise ValueError(
                f"hot_rows must mask {self.n_rows} rows, got shape {self.hot_rows.shape}"
            )

    def _decide_batch(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        kinds, _ = super()._decide_batch(rows)
        hot = self.hot_rows[rows]
        self.rcount.reset_rows(rows[hot])
        kinds[hot] = KIND_FULL
        return kinds, self._kind_latencies[kinds]

    def timeline_spec(self):
        spec = super().timeline_spec()
        return replace(
            spec,
            cycle_len=np.where(self.hot_rows, 1, spec.cycle_len),
            phase=np.where(self.hot_rows, 0, spec.phase),
        )


def _build_vrl_temp(tech, profile, binning, nbits):
    """Registry builder: standard MPRSF construction, custom policy class."""
    base = build_policy("vrl-access", tech, profile, binning, nbits=nbits)
    return VRLTempPolicy(
        binning,
        base.mprsf.values,
        tau_full=base.tau_full,
        tau_partial=base.tau_partial,
        nbits=base.nbits,
        hot_rows=hot_region(base.n_rows),
    )


# Registering makes the custom policy a first-class mechanism: it shows
# up in `vrl-dram mechanisms` / `--mechanisms` and builds through
# `build_policy("vrl-temp", ...)` like the in-tree ones.  `replace=True`
# keeps repeated imports of this example module idempotent.
MECHANISMS.register(
    "vrl-temp",
    _build_vrl_temp,
    description="VRL-Access with full refreshes in a hot region (this example)",
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

    results = {}
    for name in ("raidr", "vrl-access", "vrl-temp"):
        policy = build_policy(name, tech, profile, binning)
        results[name] = RefreshOverheadEvaluator(policy, timing).evaluate(duration, trace)

    base_cycles = results["raidr"].refresh_cycles
    print(f"{'policy':<12} {'refresh cycles':>14} {'vs RAIDR':>9} {'partial %':>9}")
    for name, stats in results.items():
        print(
            f"{name:<12} {stats.refresh_cycles:>14} "
            f"{stats.refresh_cycles / base_cycles:>9.3f} "
            f"{100 * stats.partial_fraction:>8.1f}%"
        )
    print("\nVRL-Temp gives up the benefit on its hot quarter of the bank but keeps")
    print("the rest — the policy interface makes such variants one subclass away.")


if __name__ == "__main__":
    main()
