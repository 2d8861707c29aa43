"""Retention-time profiling substrate (Fig. 3 of the paper).

VRL-DRAM assumes a retention-time profile is available (obtained in
practice with a profiler such as REAPER [32] or AVATAR [33]).  This
package provides the reproduction's equivalent:

* :mod:`~repro.retention.distribution` — a cell-level retention-time
  distribution calibrated to the Liu et al. [27] shape used in Fig. 3a;
* :mod:`~repro.retention.profiler` — samples a bank's cells and reduces
  to per-row minima (a row is only as strong as its weakest cell), and
  groups per-row keys (``group_rows``) for the MPRSF and VRT kernels;
* :mod:`~repro.retention.binning` — RAIDR-style binning of rows into
  refresh-period buckets (Fig. 3b);
* :mod:`~repro.retention.data_patterns` — the four data patterns of
  Sec. 3.1 (all 0s, all 1s, alternating, random) and their retention
  derating;
* :mod:`~repro.retention.vrt` — variable retention time (AVATAR-style)
  degradation, justifying the MPRSF guard band;
* :mod:`~repro.retention.temperature` — exponential retention derating
  with operating temperature (halving per ~10 degC).
"""

from .binning import BinningResult, RefreshBinning, DEFAULT_PERIODS
from .data_patterns import DataPattern, worst_pattern
from .distribution import RetentionDistribution
from .profiler import RetentionProfile, RetentionProfiler, group_rows
from .temperature import TemperatureModel
from .vrt import VRTModel, VRTParameters, VRTReport

__all__ = [
    "BinningResult",
    "RefreshBinning",
    "DEFAULT_PERIODS",
    "DataPattern",
    "worst_pattern",
    "RetentionDistribution",
    "RetentionProfile",
    "RetentionProfiler",
    "group_rows",
    "TemperatureModel",
    "VRTModel",
    "VRTParameters",
    "VRTReport",
]
