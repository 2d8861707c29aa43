"""Unit tests for the memory-trace representation."""

import numpy as np
import pytest

from repro.sim import MemoryTrace
from repro.sim import trace as trace_module


def _trace(n=5, name="t"):
    return MemoryTrace(
        cycles=np.arange(n, dtype=np.int64) * 10,
        rows=np.arange(n, dtype=np.int64) % 3,
        is_write=np.array([i % 2 == 0 for i in range(n)]),
        name=name,
    )


class TestMemoryTrace:
    def test_len(self):
        assert len(_trace(7)) == 7

    def test_counts(self):
        t = _trace(5)
        assert t.n_writes == 3
        assert t.n_reads == 2

    def test_duration(self):
        assert _trace(5).duration_cycles == 40

    def test_empty_duration(self):
        t = MemoryTrace(np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.array([], dtype=bool))
        assert t.duration_cycles == 0
        assert t.footprint_rows() == 0

    def test_footprint(self):
        assert _trace(5).footprint_rows() == 3

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            MemoryTrace(np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64), np.zeros(2, dtype=bool))

    def test_rejects_decreasing_cycles(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            MemoryTrace(
                np.array([5, 3], dtype=np.int64),
                np.zeros(2, dtype=np.int64),
                np.zeros(2, dtype=bool),
            )

    @pytest.mark.parametrize("descent", range(12))
    def test_rejects_decreasing_cycles_at_any_block_boundary(self, monkeypatch, descent):
        # Blocks of 4 over 13 requests: descents 3->4 and 7->8 straddle
        # a block boundary, 11->12 reaches the short last block.
        monkeypatch.setattr(trace_module, "_CHECK_BLOCK", 4)
        cycles = np.arange(13, dtype=np.int64) * 10
        cycles[descent + 1] = cycles[descent] - 1
        with pytest.raises(ValueError, match="non-decreasing"):
            MemoryTrace(cycles, np.zeros(13, dtype=np.int64), np.zeros(13, dtype=bool))

    def test_accepts_equal_cycles_across_block_boundary(self, monkeypatch):
        monkeypatch.setattr(trace_module, "_CHECK_BLOCK", 4)
        cycles = np.repeat(np.arange(4, dtype=np.int64), [3, 2, 5, 3])
        assert len(MemoryTrace(cycles, np.zeros(13, dtype=np.int64), np.zeros(13, dtype=bool))) == 13

    def test_rejects_negative_rows(self):
        with pytest.raises(ValueError, match="non-negative"):
            MemoryTrace(
                np.array([0, 1], dtype=np.int64),
                np.array([0, -1], dtype=np.int64),
                np.zeros(2, dtype=bool),
            )
