"""RAIDR-style retention binning (Fig. 3b).

RAIDR [27] classifies rows into a small number of refresh-period bins:
a row is refreshed at the largest standard period that is still shorter
than (or equal to) its retention time.  The paper bins the 8192-row
evaluation bank into periods of 64/128/192/256 ms, obtaining the
Fig. 3b populations (68, 101, 145, 7878).

The binning is *conservative*: a row in the 256 ms bin has retention
>= 256 ms but possibly much larger — VRL-DRAM's MPRSF computation uses
the row's actual profiled retention, not its bin, which is where the
extra headroom for partial refreshes comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..units import MS
from .profiler import RetentionProfile

#: The refresh periods of Fig. 3b, seconds.
DEFAULT_PERIODS = (64 * MS, 128 * MS, 192 * MS, 256 * MS)


@dataclass(frozen=True)
class BinningResult:
    """Outcome of binning a profile into refresh periods.

    Attributes:
        periods: the available refresh periods, ascending (seconds).
        row_period: per-row assigned refresh period, seconds,
            shape ``(rows,)``.
        row_bin: per-row index into ``periods``, shape ``(rows,)``.
    """

    periods: tuple[float, ...]
    row_period: np.ndarray
    row_bin: np.ndarray

    def counts(self) -> dict[float, int]:
        """Rows per refresh period — the Fig. 3b table."""
        return {
            period: int(np.count_nonzero(self.row_bin == i))
            for i, period in enumerate(self.periods)
        }



class RefreshBinning:
    """Assign profiled rows to RAIDR refresh-period bins.

    Args:
        periods: available refresh periods in seconds, any order; they
            are sorted ascending.  The shortest period is the safety
            fallback for rows weaker than every other period.

    Raises:
        ValueError: if fewer than one period is given or any is
            non-positive.
    """

    def __init__(self, periods: Sequence[float] = DEFAULT_PERIODS):
        if len(periods) == 0:
            raise ValueError("need at least one refresh period")
        if any(p <= 0 for p in periods):
            raise ValueError(f"periods must be positive, got {periods}")
        self.periods = tuple(sorted(periods))

    def assign(self, profile: RetentionProfile) -> BinningResult:
        """Bin every row: largest period not exceeding the row's retention.

        Rows weaker than the shortest period are clamped into the
        shortest bin (in a real device they would be remapped or ECC
        protected; none occur at the calibrated distribution, matching
        Fig. 3b which has no sub-64 ms rows).
        """
        retention = profile.row_retention
        periods = np.asarray(self.periods)
        # searchsorted(right) - 1: index of the largest period <= retention.
        idx = np.searchsorted(periods, retention, side="right") - 1
        idx = np.clip(idx, 0, len(periods) - 1)
        return BinningResult(
            periods=self.periods,
            row_period=periods[idx],
            row_bin=idx,
        )
