"""Microbenchmarks of the core computational kernels.

Not a paper artifact — these track the cost of the pieces every
experiment is built from, so performance regressions surface here
before they slow the figure reproductions down.
"""

import numpy as np

from repro.circuit import CircuitSession, build_equalization_circuit
from repro.controller import build_policy
from repro.mprsf import MPRSFCalculator
from repro.model import RefreshLatencyModel
from repro.retention import RetentionDistribution
from repro.sim import DRAMTiming, RefreshOverheadEvaluator
from repro.technology import BankGeometry, DEFAULT_GEOMETRY, DEFAULT_TECH
from repro.units import MS
from repro.workloads import PARSEC_WORKLOADS, TraceGenerator

TECH = DEFAULT_TECH


class TestModelKernels:
    def test_trfc_model_construction_and_both_latencies(self, benchmark):
        def run():
            model = RefreshLatencyModel(TECH)
            return model.partial_refresh().total_cycles, model.full_refresh().total_cycles

        assert benchmark(run) == (11, 19)

    def test_mprsf_full_bank(self, benchmark, paper_profile, paper_binning):
        calc = MPRSFCalculator(TECH)

        def run():
            return calc.mprsf_for_rows(
                paper_profile.row_retention, paper_binning.row_period, max_count=3
            )

        mprsf = benchmark(run)
        assert len(mprsf) == 8192
        assert mprsf.max() == 3

    def test_retention_sampling_quarter_million_cells(self, benchmark):
        dist = RetentionDistribution()

        def run():
            return dist.sample(DEFAULT_GEOMETRY.cells, np.random.default_rng(0))

        samples = benchmark(run)
        assert len(samples) == 262144


class TestSimulationKernels:
    def test_fastpath_one_benchmark_one_second(self, benchmark, paper_profile, paper_binning):
        timing = DRAMTiming.from_technology(TECH)
        trace = TraceGenerator(PARSEC_WORKLOADS["canneal"], timing).generate(1.0)
        policy = build_policy("vrl-access", TECH, paper_profile, paper_binning)
        evaluator = RefreshOverheadEvaluator(policy, timing)
        duration = timing.cycles(1.0)

        stats = benchmark.pedantic(
            evaluator.evaluate, args=(duration, trace), rounds=3, iterations=1
        )
        assert stats.total_refreshes > 0

    def test_trace_generation_one_second(self, benchmark):
        timing = DRAMTiming.from_technology(TECH)
        generator = TraceGenerator(PARSEC_WORKLOADS["dedup"], timing)
        trace = benchmark(generator.generate, 1.0)
        assert len(trace) == 300_000


class TestCircuitKernels:
    def test_equalization_transient_1000_steps(self, benchmark):
        geometry = BankGeometry(2048, 32)

        def run():
            circuit = build_equalization_circuit(TECH, geometry)
            return CircuitSession(circuit).simulate(t_stop=2e-9, dt=2e-12, record=["bl"])

        result = benchmark.pedantic(run, rounds=3, iterations=1)
        assert abs(result["bl"][-1] - TECH.veq) < 0.02
