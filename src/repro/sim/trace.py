"""Memory-trace representation and Ramulator-compatible I/O.

A trace is three parallel numpy arrays: request issue cycle, target row,
and a write flag.  Two text formats are supported:

* **native** — one request per line, ``<cycle> <R|W> <row>``, with
  ``#`` comments; explicit and diff-friendly.
* **ramulator** — ``<cycle> <hex-address> <R|W>`` as produced by
  Ramulator's [19] DRAM-trace mode; addresses are mapped to rows with a
  configurable row-size shift (the paper generates its traces this way).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

#: Default bytes-per-row shift for address->row mapping (8 KiB rows).
DEFAULT_ROW_SHIFT = 13


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
        if n and (self.cycles[1:] < self.cycles[:-1]).any():
            raise ValueError("request cycles must be non-decreasing")
        if n and (self.rows < 0).any():
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

    def clipped(self, max_requests: int) -> "MemoryTrace":
        """A prefix of the trace with at most ``max_requests`` requests."""
        if max_requests < 0:
            raise ValueError(f"max_requests must be non-negative, got {max_requests}")
        return MemoryTrace(
            cycles=self.cycles[:max_requests],
            rows=self.rows[:max_requests],
            is_write=self.is_write[:max_requests],
            name=self.name,
        )

    def shifted(self, delta_cycles: int, delta_rows: int = 0) -> "MemoryTrace":
        """The same trace displaced in time and (optionally) row space.

        Used to compose multi-programmed mixes: offset one program's
        rows so working sets don't collide, or delay its start.
        Resulting cycles/rows must stay non-negative.
        """
        cycles = self.cycles + delta_cycles
        rows = self.rows + delta_rows
        if len(cycles) and (cycles[0] < 0 or (rows < 0).any()):
            raise ValueError("shift would produce negative cycles or rows")
        return MemoryTrace(cycles=cycles, rows=rows, is_write=self.is_write, name=self.name)


def merge_traces(traces: "list[MemoryTrace]", name: str = "merged") -> MemoryTrace:
    """Interleave several traces into one time-ordered request stream.

    The multi-programmed-workload primitive: each input keeps its own
    row addresses (``MemoryTrace.shifted`` relocates working sets when
    they must not collide) and the merge is stable, so simultaneous
    requests keep their input order.
    """
    traces = [t for t in traces if len(t)]
    if not traces:
        return MemoryTrace(
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([], dtype=bool),
            name=name,
        )
    cycles = np.concatenate([t.cycles for t in traces])
    rows = np.concatenate([t.rows for t in traces])
    writes = np.concatenate([t.is_write for t in traces])
    order = np.argsort(cycles, kind="stable")
    return MemoryTrace(
        cycles=cycles[order], rows=rows[order], is_write=writes[order], name=name
    )


def save_trace(
    trace: MemoryTrace,
    path: Union[str, Path],
    fmt: str = "native",
    row_shift: int = DEFAULT_ROW_SHIFT,
) -> None:
    """Write a trace to disk.

    Args:
        trace: the trace to write.
        path: destination file.
        fmt: ``"native"`` (``<cycle> <R|W> <row>``) or ``"ramulator"``
            (``<cycle> <hex-address> <R|W>``, rows expanded to addresses
            at ``2^row_shift`` bytes per row — interoperable with
            Ramulator-based tooling).
        row_shift: log2 of the row size in bytes (ramulator format).
    """
    path = Path(path)
    with path.open("w") as fh:
        if fmt == "native":
            fh.write(f"# vrl-dram trace: {trace.name}\n")
            fh.write("# <cycle> <R|W> <row>\n")
            for cycle, row, write in zip(trace.cycles, trace.rows, trace.is_write):
                fh.write(f"{int(cycle)} {'W' if write else 'R'} {int(row)}\n")
        elif fmt == "ramulator":
            for cycle, row, write in zip(trace.cycles, trace.rows, trace.is_write):
                address = int(row) << row_shift
                fh.write(f"{int(cycle)} {hex(address)} {'W' if write else 'R'}\n")
        else:
            raise ValueError(f"unknown trace format {fmt!r}")


def load_trace(
    path: Union[str, Path],
    fmt: str = "native",
    n_rows: int | None = None,
    row_shift: int = DEFAULT_ROW_SHIFT,
    name: str | None = None,
) -> MemoryTrace:
    """Read a trace from disk.

    Args:
        path: trace file.
        fmt: ``"native"`` or ``"ramulator"``.
        n_rows: bank row count for address wrapping (ramulator format
            only; required there).
        row_shift: log2 of the row size in bytes for address->row
            mapping (ramulator format only).
        name: workload label; defaults to the file stem.
    """
    path = Path(path)
    label = name if name is not None else path.stem
    cycles: list[int] = []
    rows: list[int] = []
    writes: list[bool] = []
    with path.open() as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            try:
                if fmt == "native":
                    cycle, op, row = int(fields[0]), fields[1].upper(), int(fields[2])
                elif fmt == "ramulator":
                    if n_rows is None:
                        raise ValueError("ramulator format requires n_rows")
                    cycle = int(fields[0])
                    address = int(fields[1], 16)
                    op = fields[2].upper()
                    row = (address >> row_shift) % n_rows
                else:
                    raise ValueError(f"unknown trace format {fmt!r}")
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed trace line {line!r}") from exc
            if op not in ("R", "W"):
                raise ValueError(f"{path}:{line_no}: bad op {op!r} (expected R or W)")
            cycles.append(cycle)
            rows.append(row)
            writes.append(op == "W")
    return MemoryTrace(
        cycles=np.asarray(cycles, dtype=np.int64),
        rows=np.asarray(rows, dtype=np.int64),
        is_write=np.asarray(writes, dtype=bool),
        name=label,
    )
