"""Batched-vs-scalar throughput of the circuit calibration (tentpole bar).

Times the Eq. 12 circuit cross-check on a 64-point charge profile two
ways, both warm (the compiled MNA session and its per-step caches
already built), in process CPU time:

* ``scalar`` — 64 sequential one-point :meth:`circuit_restored_fractions`
  calls with the result memo cleared, one one-lane adaptive transient
  each (the pre-batching path);
* ``batched`` — one :meth:`circuit_restored_fractions` call, all 64
  points as lanes of a single multi-lane transient.

Asserts the acceptance bar — warm batched calibration >= 5x the scalar
per-point loop's committed reference throughput, every lane within the
2 mV circuit envelope of its scalar run — and merges the numbers into
the committed ``BENCH_calibration.json`` so the calibration trajectory
stays comparable across PRs.

The bar is 5x a *fixed* scalar figure, not 5x the scalar loop timed in
the same run: both paths share the host's noise, but their ratio swung
3.5-6.9x between runs on one host, so a same-run ratio failed and
passed on unchanged code.  The timings are CPU seconds of this process
(:func:`time.process_time`), not wall time, so other work on a busy
host does not count against the bar.  The scalar loop is still run,
for the lane envelope check and the recorded speedup.  The analytic MPRSF vectorization
(``mprsf_for_points``) is recorded alongside for the trajectory table;
its equality contract is exact and pinned by ``tests/test_mprsf_batched.py``.
"""

import time

import numpy as np

from bench_utils import record_calibration_bench
from repro.mprsf import MPRSFCalculator
from repro.technology import DEFAULT_TECH
from repro.units import MS

#: Lanes of the calibration profile (the acceptance bar's size).
N_POINTS = 64

#: Acceptance floor: warm batched calibration vs the scalar loop.
SPEEDUP_FLOOR = 5.0

#: The scalar loop's lanes/s as committed in ``BENCH_calibration.json``
#: when the gate was restated against it (kept fixed here: the file is
#: re-recorded on every run).
SCALAR_REFERENCE_LANES_PER_S = 9.925586890279641

#: The batched lanes/s the bar asks for (49.6/s).
BATCHED_FLOOR_LANES_PER_S = SPEEDUP_FLOOR * SCALAR_REFERENCE_LANES_PER_S


def _best_of(fn, rounds):
    """Minimum process CPU time of ``rounds`` calls (steady-state estimate)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.process_time()
        result = fn()
        best = min(best, time.process_time() - start)
    return best, result


class TestCalibrationThroughput:
    def test_batched_calibration_speedup(self, benchmark):
        """Batched clears 5x the scalar reference; every lane within the envelope."""
        calc = MPRSFCalculator(DEFAULT_TECH)
        timing = calc.model.partial_refresh()
        starts = np.linspace(0.70, 0.98, N_POINTS)

        # Warm both paths: compiles the netlist once (shared session)
        # and touches every per-step cache.
        calc.circuit_restored_fractions(starts[:1], timing)
        calc.circuit_restored_fractions(starts[:2], timing)

        def scalar_loop():
            # Drop the calculator's result memo so every call solves.
            calc._restored.clear()
            return np.array(
                [
                    calc.circuit_restored_fractions(starts[i:i + 1], timing)[0]
                    for i in range(N_POINTS)
                ]
            )

        def batched():
            # Drop the calculator's result memo so every round solves.
            calc._restored.clear()
            return calc.circuit_restored_fractions(starts, timing)

        scalar_seconds, scalar_fractions = _best_of(scalar_loop, 2)
        batched_seconds, batched_fractions = _best_of(batched, 3)

        gap = np.abs(batched_fractions - scalar_fractions).max()
        assert gap <= 2e-3 / calc.tech.vdd, f"lane divergence {gap}"

        speedup = scalar_seconds / batched_seconds
        batched_lanes_per_s = N_POINTS / batched_seconds
        assert batched_lanes_per_s >= BATCHED_FLOOR_LANES_PER_S, (
            f"batched calibration {batched_lanes_per_s:.1f} lanes/s < "
            f"{BATCHED_FLOOR_LANES_PER_S:.1f} ({SPEEDUP_FLOOR}x the scalar "
            f"reference {SCALAR_REFERENCE_LANES_PER_S:.1f}/s); this run: "
            f"scalar {scalar_seconds:.3f}s, batched {batched_seconds:.3f}s, "
            f"{speedup:.2f}x"
        )

        # pytest-benchmark record of the headline (batched) path.
        benchmark.pedantic(batched, rounds=2, iterations=1)
        benchmark.extra_info["n_points"] = N_POINTS
        benchmark.extra_info["speedup_batched_vs_scalar"] = speedup

        record_calibration_bench(
            "calibration/circuit",
            {
                "n_points": N_POINTS,
                "lanes_per_s": {
                    "scalar": N_POINTS / scalar_seconds,
                    "batched": N_POINTS / batched_seconds,
                },
                "speedup_batched_vs_scalar": speedup,
                "max_lane_divergence_vdd": float(gap),
            },
        )
        print(
            f"\ncalibration: {N_POINTS} lanes — scalar "
            f"{N_POINTS / scalar_seconds:,.1f}/s, batched "
            f"{N_POINTS / batched_seconds:,.1f}/s, {speedup:.2f}x, "
            f"max divergence {gap * 1e3:.3f} mV/Vdd"
        )

    def test_mprsf_vectorization_throughput(self, benchmark):
        """Record the analytic MPRSF batched-vs-scalar trajectory."""
        calc = MPRSFCalculator(DEFAULT_TECH)
        rng = np.random.default_rng(2018)
        retention = rng.uniform(0.065, 3.0, 4096)
        periods = np.full(retention.shape, 64 * MS)

        def scalar_loop():
            return np.array(
                [
                    calc.mprsf_for_cell(float(r), 64 * MS, max_count=16)
                    for r in retention
                ]
            )

        def batched():
            return calc.mprsf_for_points(retention, periods, max_count=16)

        scalar_loop()  # warm the timing/pattern lookups
        scalar_seconds, scalar_counts = _best_of(scalar_loop, 2)
        batched_seconds, batched_counts = _best_of(batched, 5)
        np.testing.assert_array_equal(batched_counts, scalar_counts)

        speedup = scalar_seconds / batched_seconds
        benchmark.pedantic(batched, rounds=3, iterations=1)
        benchmark.extra_info["speedup_batched_vs_scalar"] = speedup

        record_calibration_bench(
            "calibration/mprsf-points",
            {
                "n_points": int(retention.size),
                "points_per_s": {
                    "scalar": retention.size / scalar_seconds,
                    "batched": retention.size / batched_seconds,
                },
                "speedup_batched_vs_scalar": speedup,
            },
        )
        print(
            f"\nmprsf: {retention.size} points — "
            f"scalar {retention.size / scalar_seconds:,.0f}/s, "
            f"batched {retention.size / batched_seconds:,.0f}/s, {speedup:.1f}x"
        )
