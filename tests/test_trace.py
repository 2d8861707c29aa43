"""Unit tests for memory-trace representation and I/O."""

import numpy as np
import pytest

from repro.sim import MemoryTrace, load_trace, save_trace
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

    def test_clipped(self):
        t = _trace(10).clipped(4)
        assert len(t) == 4
        assert t.duration_cycles == 30

    def test_clipped_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            _trace().clipped(-1)

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


class TestNativeFormat:
    def test_roundtrip(self, tmp_path):
        original = _trace(20, name="roundtrip")
        path = tmp_path / "trace.txt"
        save_trace(original, path)
        loaded = load_trace(path, name="roundtrip")
        assert np.array_equal(loaded.cycles, original.cycles)
        assert np.array_equal(loaded.rows, original.rows)
        assert np.array_equal(loaded.is_write, original.is_write)

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "canneal.txt"
        save_trace(_trace(3), path)
        assert load_trace(path).name == "canneal"

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# header\n\n10 R 3\n# mid comment\n20 W 4\n")
        t = load_trace(path)
        assert len(t) == 2
        assert t.rows.tolist() == [3, 4]
        assert t.is_write.tolist() == [False, True]

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("10 R 3\nnot a line\n")
        with pytest.raises(ValueError, match=":2"):
            load_trace(path)

    def test_bad_op_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("10 X 3\n")
        with pytest.raises(ValueError, match="bad op"):
            load_trace(path)


class TestRamulatorFormat:
    def test_address_mapping(self, tmp_path):
        path = tmp_path / "t.trace"
        # Row size 8 KiB (shift 13): 0x4000 -> row 2.
        path.write_text("100 0x4000 R\n200 0x6000 W\n")
        t = load_trace(path, fmt="ramulator", n_rows=8192)
        assert t.rows.tolist() == [2, 3]
        assert t.is_write.tolist() == [False, True]

    def test_address_wraps_bank(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(f"0 {hex(10 << 13)} R\n")
        t = load_trace(path, fmt="ramulator", n_rows=4)
        assert t.rows.tolist() == [10 % 4]

    def test_custom_row_shift(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("0 0x100 R\n")
        t = load_trace(path, fmt="ramulator", n_rows=8192, row_shift=8)
        assert t.rows.tolist() == [1]

    def test_requires_n_rows(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("0 0x100 R\n")
        with pytest.raises(ValueError, match="n_rows"):
            load_trace(path, fmt="ramulator")

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("0 0x100 R\n")
        with pytest.raises(ValueError, match="format"):
            load_trace(path, fmt="vcd")


class TestRamulatorExport:
    def test_roundtrip_via_ramulator_format(self, tmp_path):
        original = _trace(15, name="interop")
        path = tmp_path / "t.trace"
        save_trace(original, path, fmt="ramulator")
        loaded = load_trace(path, fmt="ramulator", n_rows=8192, name="interop")
        assert np.array_equal(loaded.cycles, original.cycles)
        assert np.array_equal(loaded.rows, original.rows)
        assert np.array_equal(loaded.is_write, original.is_write)

    def test_addresses_are_hex(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(_trace(3), path, fmt="ramulator")
        for line in path.read_text().splitlines():
            assert line.split()[1].startswith("0x")

    def test_custom_row_shift_roundtrip(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(_trace(5), path, fmt="ramulator", row_shift=10)
        loaded = load_trace(path, fmt="ramulator", n_rows=8192, row_shift=10)
        assert np.array_equal(loaded.rows, _trace(5).rows)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            save_trace(_trace(1), tmp_path / "t", fmt="vcd")
