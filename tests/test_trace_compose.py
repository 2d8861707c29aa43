"""Tests for the test-side trace composition helper ``merge_traces``."""

import numpy as np

from repro.sim import MemoryTrace
from tests.reference_trace import merge_traces


def _trace(cycles, rows, name="t"):
    n = len(cycles)
    return MemoryTrace(
        np.asarray(cycles, dtype=np.int64),
        np.asarray(rows, dtype=np.int64),
        np.zeros(n, dtype=bool),
        name=name,
    )


class TestMergeTraces:
    def test_time_ordered(self):
        a = _trace([0, 20], [1, 1], name="a")
        b = _trace([10, 30], [2, 2], name="b")
        merged = merge_traces([a, b], name="mix")
        assert merged.cycles.tolist() == [0, 10, 20, 30]
        assert merged.rows.tolist() == [1, 2, 1, 2]
        assert merged.name == "mix"

    def test_stable_on_ties(self):
        a = _trace([5], [1])
        b = _trace([5], [2])
        merged = merge_traces([a, b])
        assert merged.rows.tolist() == [1, 2]

    def test_empty_inputs(self):
        assert len(merge_traces([])) == 0
        empty = _trace([], [])
        assert len(merge_traces([empty, empty])) == 0

    def test_mixed_empty_and_nonempty(self):
        a = _trace([], [])
        b = _trace([3], [7])
        merged = merge_traces([a, b])
        assert merged.rows.tolist() == [7]

    def test_multiprogram_composition(self):
        """Two programs with relocated working sets share a bank."""
        from repro.sim import DRAMTiming
        from repro.technology import DEFAULT_TECH
        from repro.workloads import PARSEC_WORKLOADS, TraceGenerator

        timing = DRAMTiming.from_technology(DEFAULT_TECH)
        a = TraceGenerator(PARSEC_WORKLOADS["swaptions"], timing, seed=1).generate(0.02)
        b = TraceGenerator(PARSEC_WORKLOADS["freqmine"], timing, seed=2).generate(0.02)
        merged = merge_traces([a, b], name="swaptions+freqmine")
        assert len(merged) == len(a) + len(b)
        assert (np.diff(merged.cycles) >= 0).all()
        assert merged.footprint_rows() >= max(a.footprint_rows(), b.footprint_rows())
