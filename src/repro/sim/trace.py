"""Memory-trace representation.

A trace is three parallel numpy arrays: request issue cycle, target row,
and a write flag.  :class:`~repro.workloads.TraceGenerator` builds them
in memory; the simulators consume them.
"""

from __future__ import annotations

from dataclasses import dataclass

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

