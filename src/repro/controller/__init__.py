"""Memory-controller refresh machinery (Sec. 3.2, Algorithm 1).

VRL-DRAM "can be implemented entirely inside the memory controller":
per-row ``mprsf`` and ``rcount`` values in ``nbits``-wide counters and a
scheduling rule — full refresh when ``rcount == mprsf``, else partial.
This package provides:

* :mod:`~repro.controller.counters` — saturating counter files;
* :mod:`~repro.controller.refresh` — the refresh scheduling policies
  (conventional fixed-interval, RAIDR, VRL, and VRL-Access), each
  exposing both the vectorized batch kernel (``decide`` /
  ``on_access_rows``) and the scalar per-row interface;
* :mod:`~repro.controller.mechanisms` — the rival mechanisms of the
  head-to-head matrix (DARP, ChargeCache, AVATAR);
* :mod:`~repro.controller.registry` — the mechanism registry mapping
  names to builders and capability flags (``needs_trace``,
  ``reorders_refresh``, ``modulates_access``); ``build_policy``
  dispatches through it.
"""

from .counters import CounterFile
from .mechanisms import AVATARPolicy, ChargeCachePolicy, DARPPolicy
from .refresh import (
    KIND_FULL,
    KIND_PARTIAL,
    FGRPolicy,
    FixedRefreshPolicy,
    RAIDRPolicy,
    RefreshCommand,
    RefreshKind,
    RefreshPolicy,
    TimelineSpec,
    VRLAccessPolicy,
    VRLPolicy,
    build_policy,
)
from .registry import MECHANISMS, MechanismInfo, MechanismRegistry

__all__ = [
    "CounterFile",
    "KIND_FULL",
    "KIND_PARTIAL",
    "AVATARPolicy",
    "ChargeCachePolicy",
    "DARPPolicy",
    "FGRPolicy",
    "FixedRefreshPolicy",
    "MECHANISMS",
    "MechanismInfo",
    "MechanismRegistry",
    "RAIDRPolicy",
    "RefreshCommand",
    "RefreshKind",
    "RefreshPolicy",
    "TimelineSpec",
    "VRLAccessPolicy",
    "VRLPolicy",
    "build_policy",
]
