"""Result containers for the bank simulators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..controller.refresh import KIND_FULL

if TYPE_CHECKING:  # pragma: no cover - import for type hints only
    from ..controller.refresh import RefreshCommand


@dataclass
class RefreshStats:
    """Accounting of refresh activity over a simulation.

    ``refresh_cycles / duration_cycles`` is the paper's Fig. 4 metric:
    the refresh performance overhead, "as measured in cycles spent
    refreshing the bank".
    """

    full_refreshes: int = 0
    partial_refreshes: int = 0
    refresh_cycles: int = 0
    duration_cycles: int = 0

    def record(self, command: "RefreshCommand") -> None:
        """Account one issued refresh command (scalar simulator path)."""
        self.refresh_cycles += command.latency_cycles
        if command.kind.value == "full":
            self.full_refreshes += 1
        else:
            self.partial_refreshes += 1

    def record_batch(self, kinds: np.ndarray, latency_cycles: np.ndarray) -> None:
        """Account one batch of kernel decisions (vectorized path).

        Args:
            kinds: kind codes as returned by
                :meth:`repro.controller.refresh.RefreshPolicy.decide`.
            latency_cycles: matching per-refresh latencies in cycles.
        """
        n_full = int(np.count_nonzero(kinds == KIND_FULL))
        self.full_refreshes += n_full
        self.partial_refreshes += len(kinds) - n_full
        self.refresh_cycles += int(latency_cycles.sum())

    @property
    def total_refreshes(self) -> int:
        """Number of refresh operations issued."""
        return self.full_refreshes + self.partial_refreshes

    @property
    def partial_fraction(self) -> float:
        """Fraction of refreshes that were partial (0 if none issued)."""
        total = self.total_refreshes
        return self.partial_refreshes / total if total else 0.0

    @property
    def overhead(self) -> float:
        """Refresh overhead: fraction of bank time spent refreshing."""
        if self.duration_cycles <= 0:
            return 0.0
        return self.refresh_cycles / self.duration_cycles

    def merge(self, other: "RefreshStats") -> "RefreshStats":
        """Combine two disjoint measurement windows (durations add)."""
        return RefreshStats(
            full_refreshes=self.full_refreshes + other.full_refreshes,
            partial_refreshes=self.partial_refreshes + other.partial_refreshes,
            refresh_cycles=self.refresh_cycles + other.refresh_cycles,
            duration_cycles=self.duration_cycles + other.duration_cycles,
        )


@dataclass
class RequestStats:
    """Accounting of demand-request service over a simulation."""

    n_requests: int = 0
    n_reads: int = 0
    n_writes: int = 0
    row_hits: int = 0
    total_latency_cycles: int = 0
    max_latency_cycles: int = 0
    refresh_stall_cycles: int = 0

    @property
    def mean_latency_cycles(self) -> float:
        """Average request latency (0 if no requests)."""
        return self.total_latency_cycles / self.n_requests if self.n_requests else 0.0

    @property
    def row_hit_rate(self) -> float:
        """Fraction of requests served from the open row."""
        return self.row_hits / self.n_requests if self.n_requests else 0.0

    def record(self, is_write: bool, latency: int, hit: bool, refresh_stall: int) -> None:
        """Record one serviced request."""
        self.n_requests += 1
        if is_write:
            self.n_writes += 1
        else:
            self.n_reads += 1
        if hit:
            self.row_hits += 1
        self.total_latency_cycles += latency
        self.max_latency_cycles = max(self.max_latency_cycles, latency)
        self.refresh_stall_cycles += refresh_stall

    def record_batch(
        self,
        is_write: np.ndarray,
        latency: np.ndarray,
        hit: np.ndarray,
        refresh_stall: np.ndarray,
    ) -> None:
        """Record a batch of serviced requests (vectorized path).

        Equal to calling :meth:`record` once per entry, in any order.
        """
        n = len(latency)
        n_writes = int(np.count_nonzero(is_write))
        self.n_requests += n
        self.n_writes += n_writes
        self.n_reads += n - n_writes
        self.row_hits += int(np.count_nonzero(hit))
        self.total_latency_cycles += int(latency.sum())
        self.max_latency_cycles = max(
            self.max_latency_cycles, int(latency.max(initial=0))
        )
        self.refresh_stall_cycles += int(refresh_stall.sum())
