"""Retention profiler: from cell samples to a per-row profile.

The paper assumes retention profiling data "is available, e.g., using
methods in previous works [16, 27, 32, 33]".  This module plays the role
of such a profiler (REAPER-like): it assigns every cell in a bank a
retention time drawn from a :class:`RetentionDistribution` and reduces
each row to the retention of its weakest cell — the quantity both RAIDR
binning and the MPRSF computation consume.

Profiled retention values are *worst-case-pattern* retention times, as
a REAPER-style profiler measures them (profiling at aggressive
conditions with pessimistic data patterns).  The data-pattern derating
and VRT guard applied during MPRSF computation therefore sit *on top*
of these values as additional safety margin for the partial-refresh
dynamics, not as a correction to the profile.

Profiling is deterministic given a seed, so the whole evaluation
pipeline is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..technology import BankGeometry, DEFAULT_GEOMETRY
from .distribution import RetentionDistribution


@dataclass(frozen=True)
class RetentionProfile:
    """Profiled retention data of one DRAM bank.

    Attributes:
        geometry: the profiled bank's geometry.
        row_retention: per-row minimum retention time, seconds,
            shape ``(rows,)``.
        cell_retention: optional full per-cell data, shape
            ``(rows, cols)``; ``None`` when profiling was run with
            ``keep_cells=False`` to save memory.
    """

    geometry: BankGeometry
    row_retention: np.ndarray
    cell_retention: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.row_retention.shape != (self.geometry.rows,):
            raise ValueError(
                f"row_retention shape {self.row_retention.shape} does not match "
                f"geometry {self.geometry}"
            )
        if self.cell_retention is not None and self.cell_retention.shape != (
            self.geometry.rows,
            self.geometry.cols,
        ):
            raise ValueError(
                f"cell_retention shape {self.cell_retention.shape} does not match "
                f"geometry {self.geometry}"
            )

    @property
    def weakest_retention(self) -> float:
        """Retention of the single weakest row in the bank (seconds)."""
        return float(self.row_retention.min())


class RetentionProfiler:
    """Samples a bank's retention profile from a distribution.

    Args:
        distribution: the cell-level retention distribution; defaults to
            the calibrated Liu-et-al.-shaped mixture.
        seed: RNG seed; the paper-default seed 2018 reproduces the
            Fig. 3b bin populations.
    """

    #: Seed used for all paper-reproduction experiments.
    DEFAULT_SEED = 2018

    def __init__(
        self,
        distribution: RetentionDistribution | None = None,
        seed: int = DEFAULT_SEED,
    ):
        self.distribution = distribution or RetentionDistribution()
        self.seed = seed

    def profile(
        self,
        geometry: BankGeometry = DEFAULT_GEOMETRY,
        keep_cells: bool = False,
    ) -> RetentionProfile:
        """Profile every cell of a bank and reduce to per-row minima.

        Args:
            geometry: bank to profile.
            keep_cells: retain the full per-cell matrix (needed only for
                cell-granularity studies; the VRL mechanism operates on
                row minima).
        """
        rng = np.random.default_rng(self.seed)
        cells = self.distribution.sample(geometry.cells, rng).reshape(
            geometry.rows, geometry.cols
        )
        row_min = cells.min(axis=1)
        return RetentionProfile(
            geometry=geometry,
            row_retention=row_min,
            cell_retention=cells if keep_cells else None,
        )


def group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows of a 2-D ``keys`` array (one key per DRAM row).

    Returns ``(first, inverse)`` as ``np.unique(keys, axis=0,
    return_index=True, return_inverse=True)`` does: the first row of each
    distinct key, in lexicographic key order, and each row's group, so
    ``keys[first]`` is ``unique``'s array of distinct keys.  One stable
    ``np.lexsort`` replaces ``unique``'s structured-view sort.  The MPRSF
    row deduplication and the VRT replay both group through it.
    """
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.empty(len(order), dtype=bool)
    starts[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse
