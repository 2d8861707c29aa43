"""Trace skipping: cells build a workload trace only when pricing reads it.

:attr:`RefreshOverheadEvaluator.reads_trace` lets the ``refresh-overhead``
and ``baseline-mechanism`` cells skip the trace build for policies the
fused timeline prices without it.  The skip is only sound if, whenever
``reads_trace`` is False, the trace cannot change the result: these
tests pin that as an oracle over every policy those cells build and
every registered mechanism, and check that an unknown workload still
fails a cell whether or not a trace would be built.
"""

import copy

import pytest

from repro.controller import MECHANISMS, FGRPolicy, RefreshCommand, build_policy
from repro.retention import RefreshBinning, RetentionProfiler
from repro.runner import compute_cell, tech_params
from repro.runner.cells import _trace
from repro.sim import DRAMTiming, RefreshOverheadEvaluator
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.workloads import PARSEC_WORKLOADS, TraceGenerator
from tests.test_differential_engine_fastpath import _policy_state

TECH = DEFAULT_TECH
GEO = BankGeometry(256, 16)
TIMING = DRAMTiming.from_technology(TECH)
DURATION_S = 1.0

#: The policies the fig4 and baselines cells price.
CELL_POLICIES = ("fixed-64ms", "fgr-2x", "fgr-4x", "raidr", "vrl", "vrl-access")


@pytest.fixture(scope="module")
def bank():
    profile = RetentionProfiler(seed=3).profile(GEO)
    return profile, RefreshBinning().assign(profile)


@pytest.fixture(scope="module")
def trace():
    return TraceGenerator(PARSEC_WORKLOADS["canneal"], TIMING, GEO, seed=3).generate(
        DURATION_S
    )


def _cell_policy(name, bank):
    """A policy built the way ``baseline-mechanism`` builds it."""
    profile, binning = bank
    fixed = build_policy("fixed", TECH, profile, binning)
    if name.startswith("fgr-"):
        return FGRPolicy(GEO.rows, fixed.tau_full, mode=int(name[len("fgr-"):-1]))
    return build_policy(
        "fixed" if name == "fixed-64ms" else name, TECH, profile, binning
    )


def _fields(stats):
    return (stats.full_refreshes, stats.partial_refreshes, stats.refresh_cycles,
            stats.duration_cycles)


def _assert_skip_is_sound(policy, trace):
    """``reads_trace`` False ⇒ the trace changes neither stats nor state."""
    twin = copy.deepcopy(policy)
    with_trace = RefreshOverheadEvaluator(policy, TIMING)
    without = RefreshOverheadEvaluator(twin, TIMING)
    if with_trace.reads_trace:
        return True
    duration = TIMING.cycles(DURATION_S)
    assert _fields(with_trace.evaluate(duration, trace)) == _fields(
        without.evaluate(duration, None)
    )
    assert _policy_state(policy) == _policy_state(twin)
    return False


class TestReadsTraceOracle:
    @pytest.mark.parametrize("name", CELL_POLICIES)
    def test_cell_policies(self, name, bank, trace):
        reads = _assert_skip_is_sound(_cell_policy(name, bank), trace)
        assert reads == (name == "vrl-access")

    @pytest.mark.parametrize("name", MECHANISMS.names())
    def test_registered_mechanisms(self, name, bank, trace):
        profile, binning = bank
        _assert_skip_is_sound(MECHANISMS.build(name, TECH, profile, binning), trace)

    def test_vrl_access_reads_its_trace(self, bank, trace):
        policy = _cell_policy("vrl-access", bank)
        evaluator = RefreshOverheadEvaluator(policy, TIMING)
        assert evaluator.reads_trace
        duration = TIMING.cycles(DURATION_S)
        # The flag is not vacuous: this trace does move VRL-Access.
        assert _fields(evaluator.evaluate(duration, trace)) != _fields(
            evaluator.evaluate(duration, None)
        )

    def test_round_walk_is_conservative(self, bank):
        policy = _cell_policy("raidr", bank)

        class ScalarRAIDR(type(policy)):
            def refresh_row(self, row) -> RefreshCommand:
                return super().refresh_row(row)

        policy.__class__ = ScalarRAIDR
        evaluator = RefreshOverheadEvaluator(policy, TIMING)
        assert evaluator.backend == "loop"
        assert evaluator.reads_trace


class TestUnknownBenchmarkFails:
    """The name is checked as params are read, not by the trace build."""

    def _params(self, **extra):
        return {
            "tech": tech_params(TECH), "rows": GEO.rows, "cols": GEO.cols,
            "benchmark": "no-such-workload", "seed": 3, "duration_seconds": 0.01,
            **extra,
        }

    @pytest.mark.parametrize("policy", ["raidr", "vrl-access"])
    def test_refresh_overhead(self, policy):
        params = self._params(policy=policy, nbits=2)
        with pytest.raises(KeyError, match="unknown workload 'no-such-workload'"):
            compute_cell("refresh-overhead", params)

    @pytest.mark.parametrize("mechanism", ["vrl", "vrl-access"])
    def test_baseline_mechanism(self, mechanism):
        params = self._params(mechanism=mechanism)
        with pytest.raises(KeyError, match="unknown workload 'no-such-workload'"):
            compute_cell("baseline-mechanism", params)

    def test_known_benchmark_without_trace_read_builds_nothing(self):
        params = self._params(policy="raidr", nbits=2, benchmark="swaptions")
        before = _trace.cache_info()
        compute_cell("refresh-overhead", params)
        after = _trace.cache_info()
        assert after.hits + after.misses == before.hits + before.misses
