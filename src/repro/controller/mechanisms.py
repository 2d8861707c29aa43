"""Rival refresh mechanisms: DARP, ChargeCache, AVATAR.

The paper positions VRL against refresh-*thinning* (RAIDR).  This
module adds the other two families of the refresh-optimization
landscape so the ``mechanisms`` matrix experiment can run a genuine
head-to-head:

* :class:`DARPPolicy` — refresh-access parallelization (Chang et al.):
  the refresh *schedule and operations* are conventional, but the
  controller may serve latency-critical reads ahead of a due per-bank
  refresh, pushing the refresh into an idle window (bounded by the
  JEDEC postpone slack) and overlapping refreshes with posted write
  drains.  The win shows up in demand-request stalls, never in refresh
  accounting — which is what keeps the fused refresh pricing exact.
* :class:`ChargeCachePolicy` — access-latency reduction (Hassan et
  al.): rows activated recently are still highly charged, so a small
  controller-side table of recently-accessed rows lowers the
  activation portion of tRCD/tRAS for hits until the charge decays.
  Built on :class:`~repro.controller.counters.CounterFile` valid bits
  like the VRL counter files.
* :class:`AVATARPolicy` — VRT-aware online profiling (Qureshi et al.)
  on :mod:`repro.retention.vrt`: rows start at the conservative 64 ms
  rate and are upgraded to their RAIDR bin only after surviving
  consecutive VRT test windows; any detected failure pins the row back
  to 64 ms.  The deployed per-row periods are static for a run
  (steady-state AVATAR), so every deadline/fused-timeline invariant of
  the scheduling stack holds unchanged.

All three keep the base decision kernel (full refreshes only), so
``supports_fused_timeline()`` stays true: their refresh *statistics*
are fused-priceable, and their distinguishing behaviour rides on the
capability flags (``reorders_refresh``, ``modulates_access``) the
simulators consult.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..retention.binning import BinningResult
from ..retention.profiler import RetentionProfile
from ..retention.vrt import VRTModel, VRTParameters
from .counters import CounterFile
from .refresh import CONVENTIONAL_PERIOD, RAIDRPolicy, RefreshPolicy

__all__ = ["AVATARPolicy", "ChargeCachePolicy", "DARPPolicy"]


class DARPPolicy(RefreshPolicy):
    """Out-of-order per-bank refresh (DARP): hide refreshes in idle windows.

    The schedule is the conventional one (every row fully refreshed
    every 64 ms) — DARP changes *when* a due refresh is issued relative
    to demand traffic, not what is refreshed.  ``reorders_refresh``
    tells the simulators to apply the shared
    :func:`~repro.sim.schedule.should_defer_refresh` arbitration: a due
    refresh whose window would collide with a pending latency-critical
    read is deferred past it, up to ``refresh_slack_cycles`` beyond the
    deadline (the JEDEC postpone budget), and issued in the first idle
    window instead.  Pending *writes* never defer a refresh — the
    refresh proceeds under the posted write drain (write-refresh
    parallelization).

    Refresh counts, kinds, and latencies are identical to
    :class:`~repro.controller.refresh.FixedRefreshPolicy`; the benefit
    appears in request stall accounting.

    Args:
        n_rows: rows in the bank.
        tau_full: full-refresh latency in cycles.
        max_defer_cycles: how far past its deadline a refresh may be
            pushed (0 degenerates to in-order arbitration).
        period: per-row refresh period in seconds.
    """

    name = "darp"
    needs_trace = True
    reorders_refresh = True

    def __init__(
        self,
        n_rows: int,
        tau_full: int,
        max_defer_cycles: int,
        period: float = CONVENTIONAL_PERIOD,
    ):
        super().__init__(n_rows, tau_full, period)
        if max_defer_cycles < 0:
            raise ValueError(
                f"max_defer_cycles must be >= 0, got {max_defer_cycles}"
            )
        self.refresh_slack_cycles = int(max_defer_cycles)


class ChargeCachePolicy(RefreshPolicy):
    """ChargeCache: recently-accessed rows activate faster.

    A row activated moments ago is still highly charged, so its next
    activation needs less time to sense — the controller tracks the
    last ``capacity`` accessed rows and, while an entry is younger than
    ``lifetime_cycles`` (the caching duration before leakage erases
    the advantage), serves row *misses/conflicts* to it with
    ``discount_cycles`` shaved off the activation latency.  Row-buffer
    hits skip activation entirely and are never discounted.

    The table is modeled on the controller's counter hardware: a 1-bit
    :class:`~repro.controller.counters.CounterFile` holds the per-row
    valid bits (mirroring HCRAC's presence vector) while an ordered
    map carries the expiry cycles in least-recently-used order: every
    access, hit or not, renews its row's entry and moves it to the
    back, and a new row arriving at a full table evicts the front.
    Lookup-then-insert per access, exactly the hardware's
    single-ported behaviour, all inside :meth:`access_latencies` — the
    refresh side is untouched conventional 64 ms, so refresh
    statistics stay fused-priceable.

    Args:
        n_rows: rows in the bank.
        tau_full: full-refresh latency in cycles.
        discount_cycles: activation cycles saved on a charge-cache hit.
        lifetime_cycles: cycles an entry stays valid after its access.
        capacity: maximum tracked rows (LRU eviction when full).
        period: per-row refresh period in seconds.
    """

    name = "chargecache"
    needs_trace = True
    modulates_access = True

    #: Caching duration before leakage erases the charge advantage.
    DEFAULT_LIFETIME_SECONDS = 1e-3

    #: Tracked rows (per bank) in the reference design.
    DEFAULT_CAPACITY = 128

    def __init__(
        self,
        n_rows: int,
        tau_full: int,
        discount_cycles: int,
        lifetime_cycles: int,
        capacity: int = DEFAULT_CAPACITY,
        period: float = CONVENTIONAL_PERIOD,
    ):
        super().__init__(n_rows, tau_full, period)
        if discount_cycles < 0:
            raise ValueError(
                f"discount_cycles must be >= 0, got {discount_cycles}"
            )
        if lifetime_cycles <= 0:
            raise ValueError(
                f"lifetime_cycles must be positive, got {lifetime_cycles}"
            )
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.discount_cycles = int(discount_cycles)
        self.lifetime_cycles = int(lifetime_cycles)
        self.capacity = int(capacity)
        self.valid = CounterFile(n_rows, 1)
        self._expiry: "OrderedDict[int, int]" = OrderedDict()
        self.lookups = 0
        self.hits = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that found a live entry."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def access_latencies(
        self,
        rows: np.ndarray,
        base_cycles: np.ndarray,
        row_hit: np.ndarray,
        cycles: np.ndarray,
    ) -> np.ndarray:
        """Lookup-then-insert each request; discount still-charged activations.

        One in-order pass over the window: a tracked row whose expiry
        is still ahead of the request's cycle is a hit; either way the
        row becomes the most recently used entry with a fresh expiry,
        evicting the least recently used one when a new row finds the
        table full.  The valid bits are written once per call.
        """
        rows = self._check_rows(rows)
        latencies = np.array(base_cycles, dtype=np.int64)
        expiry = self._expiry
        get, move_to_end, popitem = expiry.get, expiry.move_to_end, expiry.popitem
        lifetime, capacity = self.lifetime_cycles, self.capacity
        hits, evicted = [], []
        hit, evict = hits.append, evicted.append
        index = -1
        for row, cycle in zip(rows.tolist(), cycles.tolist()):
            index += 1
            due = get(row)
            if due is None:
                if len(expiry) >= capacity:
                    evict(popitem(False)[0])
            else:
                if cycle < due:
                    hit(index)
                move_to_end(row)
            expiry[row] = cycle + lifetime
        self.lookups += len(rows)
        self.hits += len(hits)
        if evicted:
            self.valid.reset_rows(np.array(evicted, dtype=np.int64))
        self.valid.increment_rows(np.fromiter(expiry, dtype=np.int64, count=len(expiry)))
        discounted = np.array(hits, dtype=np.int64)
        discounted = discounted[~row_hit[discounted]]
        latencies[discounted] = np.maximum(1, latencies[discounted] - self.discount_cycles)
        return latencies

    def reset(self) -> None:
        self._expiry.clear()
        self.valid.reset_all()
        self.lookups = 0
        self.hits = 0


class AVATARPolicy(RAIDRPolicy):
    """AVATAR-style online profiling: earn the relaxed rate, lose it on VRT.

    A one-shot retention profile cannot be trusted forever — variable
    retention time flips cells between states after profiling.  AVATAR
    therefore treats the RAIDR binning as a *candidate*: every row
    starts at the conservative 64 ms rate, each inter-refresh test
    window replays the VRT model
    (:meth:`~repro.retention.vrt.VRTModel.degraded_retention` with a
    per-window seed) against the row's binned period, and only rows
    that stay clean for ``upgrade_streak`` consecutive windows are
    upgraded to their bin; a detected failure resets the streak and
    pins the row back at 64 ms.  The loop runs to steady state at
    construction, so the deployed :meth:`row_periods` are static during
    a simulation — deadline placement, the fused timeline, and every
    differential invariant hold exactly as for RAIDR.

    Args:
        binning: RAIDR bin assignment (the upgrade target rates).
        tau_full: full-refresh latency in cycles.
        profile: the bank's retention profile the VRT model degrades.
        vrt: VRT population parameters (defaults mirror
            :class:`~repro.retention.vrt.VRTParameters`).
        windows: profiling windows replayed to steady state.
        upgrade_streak: consecutive clean windows before an upgrade.
        seed: base RNG seed; window ``w`` samples with ``seed + w``.
    """

    name = "avatar"

    def __init__(
        self,
        binning: BinningResult,
        tau_full: int,
        profile: RetentionProfile,
        vrt: VRTParameters | None = None,
        windows: int = 4,
        upgrade_streak: int = 2,
        seed: int = 7,
    ):
        super().__init__(binning, tau_full)
        if windows < 1:
            raise ValueError(f"windows must be >= 1, got {windows}")
        if upgrade_streak < 1:
            raise ValueError(
                f"upgrade_streak must be >= 1, got {upgrade_streak}"
            )
        if len(profile.row_retention) != self.n_rows:
            raise ValueError(
                f"profile rows {len(profile.row_retention)} != binning rows "
                f"{self.n_rows}"
            )
        binned = np.asarray(binning.row_period, dtype=float)
        conservative = np.minimum(binned, CONVENTIONAL_PERIOD)
        periods = conservative.copy()
        streak = np.zeros(self.n_rows, dtype=np.int64)
        for window in range(windows):
            model = VRTModel(vrt, seed=seed + window)
            degraded = model.degraded_retention(profile)
            failing = degraded < binned
            streak[failing] = 0
            periods[failing] = conservative[failing]
            streak[~failing] += 1
            upgraded = streak >= upgrade_streak
            periods[upgraded] = binned[upgraded]
        self._periods = periods
        self.profiling_windows = windows
        self.upgrade_streak = upgrade_streak
        self.upgraded_rows = int(np.count_nonzero(periods > conservative))
        self.pinned_rows = self.n_rows - self.upgraded_rows

    def row_period(self, row: int) -> float:
        self._check_row(row)
        return float(self._periods[row])

    def row_periods(self) -> np.ndarray:
        return self._periods.copy()
