"""Benchmark of the compiled circuit session vs the seed solver path.

Times a full Fig. 2d refresh transient (9 MOSFETs, 29 unknowns, 8000
backward-Euler steps at 5 ps; the largest verb netlist, Table 1's
charge-sharing circuit, has 50 unknowns) in three configurations:

1. **reference fixed-step** — the stamping oracle of
   ``tests/reference_assembler.py`` reproduces the seed solver exactly:
   every Newton iteration re-stamps every element into a fresh dense
   matrix;
2. **compiled fixed-step** — same step sequence through the compiled
   assembler (cached linear base, vectorized device stamps, in-place
   LAPACK solve);
3. **compiled adaptive** — the same session with LTE step control,
   resampled onto the fixed grid.

The PR's acceptance bar is >= 5x for the compiled adaptive session
against the seed path, with waveforms agreeing within measurement
tolerance (the solver's own abstol is 1 uV; sense decisions move on
tens of mV, so 10 mV is comfortably inside the noise floor of every
measurement taken from these waveforms).  The fixed-step speedup is
recorded in ``extra_info`` so the per-iteration win stays visible even
though the bar is carried by adaptive stepping.
"""

import time

import numpy as np

from repro.circuit import CircuitSession
from repro.circuit.compiled import CompiledCircuit
from repro.circuit.dram_circuits import DEFAULT_REFRESH_PHASES, build_refresh_circuit
from repro.technology import DEFAULT_GEOMETRY, DEFAULT_TECH
from tests.reference_assembler import reference_session

T_STOP = 40e-9
DT = 5e-12
RECORD = ["cell", "bl", "blb"]
WAVEFORM_TOLERANCE_V = 10e-3  # measurement tolerance (sense margins ~ tens of mV)


def _refresh_circuit():
    return build_refresh_circuit(
        DEFAULT_TECH,
        DEFAULT_GEOMETRY,
        DEFAULT_REFRESH_PHASES,
        v_cell_initial=DEFAULT_TECH.v_fail,
    )


class TestSolverThroughput:
    def test_compiled_adaptive_speedup(self, benchmark):
        """Compiled adaptive session >= 5x over the seed solver path."""
        seed_session = reference_session(_refresh_circuit())
        start = time.perf_counter()
        seed = seed_session.simulate(T_STOP, DT, record=RECORD)
        seed_seconds = time.perf_counter() - start

        session = CircuitSession(_refresh_circuit())
        assert isinstance(session.assembler, CompiledCircuit)

        adaptive = benchmark.pedantic(
            session.simulate,
            args=(T_STOP, DT),
            kwargs={"record": RECORD, "adaptive": True},
            rounds=3,
            iterations=1,
        )
        try:
            adaptive_seconds = benchmark.stats["mean"]
        except TypeError:  # --benchmark-disable: stats unavailable, time directly
            start = time.perf_counter()
            adaptive = session.simulate(T_STOP, DT, record=RECORD, adaptive=True)
            adaptive_seconds = time.perf_counter() - start

        start = time.perf_counter()
        fixed = session.simulate(T_STOP, DT, record=RECORD)
        fixed_seconds = time.perf_counter() - start

        # Waveform agreement within measurement tolerance, on every
        # recorded node, for both compiled paths.
        worst_fixed = max(
            float(np.max(np.abs(seed[n] - fixed[n]))) for n in RECORD
        )
        worst_adaptive = max(
            float(np.max(np.abs(seed[n] - adaptive[n]))) for n in RECORD
        )
        assert worst_fixed < 1e-9  # identical algorithm, identical waveforms
        assert worst_adaptive < WAVEFORM_TOLERANCE_V

        n_steps = len(seed.time) - 1
        speedup = seed_seconds / adaptive_seconds
        stats = adaptive.stats
        benchmark.extra_info["seed_steps_per_s"] = n_steps / seed_seconds
        benchmark.extra_info["compiled_fixed_steps_per_s"] = n_steps / fixed_seconds
        benchmark.extra_info["adaptive_grid_steps_per_s"] = n_steps / adaptive_seconds
        benchmark.extra_info["fixed_speedup_vs_seed"] = seed_seconds / fixed_seconds
        benchmark.extra_info["adaptive_speedup_vs_seed"] = speedup
        benchmark.extra_info["newton_iterations"] = stats.newton_iterations
        benchmark.extra_info["factorizations"] = stats.factorizations
        benchmark.extra_info["accepted_steps"] = stats.accepted_steps
        benchmark.extra_info["rejected_steps"] = stats.rejected_steps
        benchmark.extra_info["max_deviation_v"] = worst_adaptive
        print(
            f"\nrefresh netlist, {n_steps} grid steps — "
            f"seed {n_steps / seed_seconds:,.0f} steps/s, "
            f"compiled fixed {n_steps / fixed_seconds:,.0f} steps/s "
            f"({seed_seconds / fixed_seconds:.2f}x), "
            f"adaptive {n_steps / adaptive_seconds:,.0f} steps/s "
            f"({speedup:.1f}x, {stats.summary()}), "
            f"max deviation {1e3 * worst_adaptive:.2f} mV"
        )
        assert speedup >= 5.0

    def test_session_reuse_amortizes_compilation(self, benchmark):
        """Re-running one session (the mprsf sweep pattern) stays fast."""
        session = CircuitSession(_refresh_circuit())
        session.simulate(1e-9, DT, record=["cell"])  # warm the compile

        def sweep():
            for start in (0.75, 0.85, 0.95):
                session.simulate(
                    10e-9,
                    DT,
                    record=["cell"],
                    adaptive=True,
                    initial_overrides={"cell": start * DEFAULT_TECH.vdd},
                )

        benchmark.pedantic(sweep, rounds=3, iterations=1)
        try:
            sweep_seconds = benchmark.stats["mean"]
        except TypeError:  # --benchmark-disable
            start = time.perf_counter()
            sweep()
            sweep_seconds = time.perf_counter() - start
        benchmark.extra_info["sweep_points_per_s"] = 3 / sweep_seconds
        assert sweep_seconds < 5.0
