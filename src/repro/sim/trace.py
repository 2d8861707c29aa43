"""Memory-trace representations.

A :class:`MemoryTrace` is three parallel numpy arrays: request issue
cycle, target row, and a write flag.
:meth:`~repro.workloads.TraceGenerator.generate` builds one in memory
for the cycle-level engine.  A :class:`StreamedTrace`
(:meth:`~repro.workloads.TraceGenerator.stream`) holds no trace-length
int64 array: its issue cycles are stored per block of requests as
gaps, in the narrowest unsigned dtype that holds the block's largest
gap (:func:`narrow_gaps`; two bytes a request on most workloads), and
its rows are produced block by block.  Each pass
decodes a block's gaps into one reused int64 buffer
(:func:`decoded_cycles`) and yields ``(cycles, rows)`` pairs: the fused
timeline reads nothing else, so pricing VRL-Access never holds a
trace-length cycle, row or write-flag array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

#: Requests per block of the construction-time ordering check.
_CHECK_BLOCK = 1 << 16


@dataclass(frozen=True)
class MemoryTrace:
    """An ordered stream of single-bank memory requests.

    Attributes:
        cycles: request issue times in controller cycles, ascending,
            shape ``(n,)``.
        rows: target row per request, shape ``(n,)``.
        is_write: write flag per request, shape ``(n,)``.
        name: workload label (used in reports).
    """

    cycles: np.ndarray
    rows: np.ndarray
    is_write: np.ndarray
    name: str = "trace"

    def __post_init__(self) -> None:
        n = len(self.cycles)
        if len(self.rows) != n or len(self.is_write) != n:
            raise ValueError(
                f"array lengths differ: cycles={n}, rows={len(self.rows)}, "
                f"is_write={len(self.is_write)}"
            )
        # Blockwise, so a check allocates no trace-length temporary.
        for start in range(0, n - 1, _CHECK_BLOCK):
            window = self.cycles[start:start + _CHECK_BLOCK + 1]
            if (window[1:] < window[:-1]).any():
                raise ValueError("request cycles must be non-decreasing")
        if n and self.rows.min() < 0:
            raise ValueError("rows must be non-negative")

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def n_reads(self) -> int:
        """Number of read requests."""
        return int(np.count_nonzero(~self.is_write.astype(bool)))

    @property
    def n_writes(self) -> int:
        """Number of write requests."""
        return int(np.count_nonzero(self.is_write.astype(bool)))

    @property
    def duration_cycles(self) -> int:
        """Cycle of the last request (0 for an empty trace)."""
        return int(self.cycles[-1]) if len(self) else 0

    def footprint_rows(self) -> int:
        """Number of distinct rows the trace touches."""
        return int(len(np.unique(self.rows))) if len(self) else 0


def narrow_gaps(cycles: np.ndarray, previous: int, scratch: np.ndarray) -> np.ndarray:
    """The gaps of ascending ``cycles`` from ``previous`` on, narrowed.

    The dtype is ``np.min_scalar_type`` of the largest gap: ``uint16``
    for most workloads' blocks, and up to ``uint64`` for gaps past
    ``uint32``, all in this one path.  ``scratch`` is an int64 buffer at
    least as long as ``cycles``.
    """
    gaps = scratch[:len(cycles)]
    gaps[0] = cycles[0] - previous
    np.subtract(cycles[1:], cycles[:-1], out=gaps[1:])
    return gaps.astype(np.min_scalar_type(int(gaps.max())))


def decoded_cycles(
    gap_blocks: Sequence[np.ndarray], out: Optional[np.ndarray] = None
) -> Iterator[np.ndarray]:
    """Each (non-empty) gap block's int64 cycles, the running total
    carried across blocks.

    With ``out`` (trace-length), each block is its slice of ``out``.
    Without, every block is cumsummed into one reused buffer, so a
    yielded block is overwritten by the next: copy it to keep it.
    """
    reuse = out is None
    if reuse:
        out = np.empty(max(map(len, gap_blocks), default=0), dtype=np.int64)
    start = carry = 0
    for gaps in gap_blocks:
        cycles = out[start:start + len(gaps)]
        np.cumsum(gaps, dtype=np.int64, out=cycles)
        cycles += carry
        carry = int(cycles[-1])
        if not reuse:
            start += len(gaps)
        yield cycles


@dataclass(frozen=True)
class StreamedTrace:
    """The (row, cycle) structure of a trace, decoded block by block per pass.

    Iterating yields ``(cycles, rows)`` int64 pairs of consecutive
    requests, which concatenate to the trace's ``n`` cycles and rows.
    Both arrays of a pair alias buffers the next pair overwrites:
    consumers copy a block before keeping it.

    Attributes:
        gap_blocks: per block, the issue-cycle gaps from the previous
            request (from cycle 0 for the first), each block in the
            narrowest unsigned dtype that holds it (:func:`narrow_gaps`).
        row_blocks: re-iterable; every pass yields the target rows of
            consecutive requests as int64 blocks, one per gap block and
            of the same length.
        name: workload label (used in reports).
        last_cycle: issue cycle of the last request (0 for an empty
            trace); cycles ascend, so it is the latest.
    """

    gap_blocks: tuple[np.ndarray, ...]
    row_blocks: Iterable[np.ndarray]
    name: str = "trace"
    last_cycle: int = field(init=False)

    def __post_init__(self) -> None:
        total = sum(int(gaps.sum(dtype=np.uint64)) for gaps in self.gap_blocks)
        object.__setattr__(self, "last_cycle", total)

    def __len__(self) -> int:
        return sum(map(len, self.gap_blocks))

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        row_blocks = iter(self.row_blocks)
        for cycles in decoded_cycles(self.gap_blocks):
            rows = next(row_blocks, None)
            if rows is None or len(rows) != len(cycles):
                raise ValueError("row blocks do not match the trace's gap blocks")
            yield cycles, rows
