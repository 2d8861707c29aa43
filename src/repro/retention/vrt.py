"""Variable retention time (VRT) modeling (AVATAR [33], Liu et al. [28]).

Some DRAM cells toggle between retention states over time: a cell that
profiled strong can later retain noticeably less, which is why any
mechanism that relaxes refresh based on a one-time profile needs a
safety margin.  This module provides the two-state VRT model used to
*justify* the ``retention_guard`` of
:class:`~repro.technology.TechnologyParams`:

* a fraction of cells is VRT-affected;
* an affected cell's retention can drop to ``degradation x profiled``
  during the deployment horizon (the worst state it visits);
* degradations are sampled per cell from ``[min_degradation, 1]``.

The headline analysis (:meth:`VRTModel.integrity_violations`) replays
the VRL refresh schedule against VRT-degraded retention and counts rows
that would lose data — zero at the calibrated guard, nonzero without it
(see ``repro.experiments.ablations`` and the integration tests).

The replay is one masked fixed point over all distinct rows at once
(the idiom of :meth:`~repro.mprsf.MPRSFCalculator.mprsf_for_points`):
rows are deduplicated on ``(retention in 0.1 ms, period, mprsf)``, and
every leak and restore step runs over the still-live keys as a single
array operation.  Each step is elementwise the same arithmetic as the
per-row scalar loop, so the counts are exact (architecture invariant
14; the scalar loop lives on in ``tests/test_vrt.py`` as the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..technology import TechnologyParams
from .profiler import RetentionProfile, group_rows


@dataclass(frozen=True)
class VRTParameters:
    """Population parameters of the two-state VRT model.

    Attributes:
        affected_fraction: fraction of rows containing a VRT cell
            (weakest-cell view: a row is VRT-affected if its binding
            cell is).
        min_degradation: the lowest retention multiplier an affected
            cell can visit; AVATAR reports worst-case drops of ~2x in
            pathological cells, typical populations much milder.
    """

    affected_fraction: float = 0.02
    min_degradation: float = 0.8

    def __post_init__(self) -> None:
        if not 0 <= self.affected_fraction <= 1:
            raise ValueError(
                f"affected_fraction must be in [0,1], got {self.affected_fraction}"
            )
        if not 0 < self.min_degradation <= 1:
            raise ValueError(
                f"min_degradation must be in (0,1], got {self.min_degradation}"
            )


@dataclass(frozen=True)
class VRTReport:
    """Integrity outcome of a VRL schedule under VRT degradation.

    Attributes:
        total_violations: rows losing data under the VRL schedule.
        raidr_baseline: rows that would lose data even under pure RAIDR
            (every refresh full) — the exposure inherited from binning
            without a VRT guard, which AVATAR addresses and VRL does not
            claim to fix.
        partial_induced: violations attributable to partial refreshes
            (``total - baseline``); the quantity the ``retention_guard``
            must drive to zero.
    """

    total_violations: int
    raidr_baseline: int

    @property
    def partial_induced(self) -> int:
        """Violations caused by the partial-refresh scheduling itself."""
        return self.total_violations - self.raidr_baseline


class VRTModel:
    """Samples VRT-degraded retention and checks schedule integrity.

    Args:
        params: VRT population parameters.
        seed: RNG seed for the affected-cell lottery (deterministic
            studies).
    """

    def __init__(self, params: VRTParameters | None = None, seed: int = 7):
        self.params = params or VRTParameters()
        self.seed = seed

    def degraded_retention(self, profile: RetentionProfile) -> np.ndarray:
        """Worst-case per-row retention over a deployment horizon.

        Unaffected rows keep their profiled retention; affected rows are
        degraded by a factor drawn uniformly from
        ``[min_degradation, 1)``.
        """
        rng = np.random.default_rng(self.seed)
        retention = profile.row_retention.copy()
        n = len(retention)
        affected = rng.random(n) < self.params.affected_fraction
        factors = rng.uniform(self.params.min_degradation, 1.0, size=n)
        retention[affected] *= factors[affected]
        return retention

    def integrity_violations(
        self,
        tech: TechnologyParams,
        profile: RetentionProfile,
        row_period: np.ndarray,
        mprsf: np.ndarray,
        n_generations: int = 8,
    ) -> int:
        """Rows that lose data under VRT with the given VRL schedule.

        Replays each row's steady-state schedule (``mprsf`` partials per
        full refresh, at ``row_period``) against the VRT-degraded
        retention, using the same leakage/restore physics as the MPRSF
        calculator but *without* any guard or derating — this is the
        ground truth the margins must cover.

        Args:
            tech: technology parameters.
            profile: the (pre-VRT) retention profile the schedule was
                derived from.
            row_period: per-row refresh period, seconds.
            mprsf: per-row deployed MPRSF values (counter-capped).
            n_generations: full-refresh generations to replay.

        Returns:
            The number of rows whose charge crosses the failure
            threshold at least once.

        Raises:
            ValueError: naming this method, when the schedule does not
                match the profile's row count, a period is not positive,
                an MPRSF value is negative, or ``n_generations < 1``.
        """
        model, retention, row_period, mprsf = self._replay_inputs(
            tech, profile, row_period, mprsf, n_generations
        )
        fails = self._failing_rows(model, retention, row_period, mprsf, n_generations)
        return int(np.count_nonzero(fails))

    def integrity_report(
        self,
        tech: TechnologyParams,
        profile: RetentionProfile,
        row_period: np.ndarray,
        mprsf: np.ndarray,
        n_generations: int = 8,
    ) -> VRTReport:
        """Violations under the VRL schedule vs the pure-RAIDR baseline.

        The interesting number is :attr:`VRTReport.partial_induced`:
        violations that exist *because* of partial refreshes.  With the
        calibrated ``retention_guard`` it is zero — the guard fully
        covers the modeled VRT population — while the RAIDR baseline's
        own VRT exposure (present with or without VRL) is reported
        separately.

        Both counts equal :meth:`integrity_violations` of the schedule
        and of its all-zero MPRSF; the two replays share one validation,
        one refresh model and one degraded-retention draw (the draw
        reseeds from ``seed``, so it is the same array either way).
        """
        model, retention, row_period, mprsf = self._replay_inputs(
            tech, profile, row_period, mprsf, n_generations
        )
        total, baseline = (
            int(np.count_nonzero(self._failing_rows(model, retention, row_period, m, n_generations)))
            for m in (mprsf, np.zeros_like(mprsf))
        )
        return VRTReport(total_violations=total, raidr_baseline=baseline)

    def _replay_inputs(
        self,
        tech: TechnologyParams,
        profile: RetentionProfile,
        row_period: np.ndarray,
        mprsf: np.ndarray,
        n_generations: int,
    ):
        """Validate a schedule; return ``(model, retention, row_period, mprsf)``."""
        from ..model.trfc import RefreshLatencyModel

        where = "VRTModel.integrity_violations"
        if len(row_period) != len(profile.row_retention) or len(mprsf) != len(row_period):
            raise ValueError(f"{where}: row_period/mprsf must match the profile's row count")
        row_period = np.asarray(row_period, dtype=float)
        mprsf = np.asarray(mprsf)
        if not np.all(row_period > 0):
            bad = row_period[~(row_period > 0)][0]
            raise ValueError(f"{where}: refresh periods must be positive, got {bad}")
        if np.any(mprsf < 0):
            raise ValueError(f"{where}: mprsf must be non-negative, got {mprsf.min()}")
        if n_generations < 1:
            raise ValueError(f"{where}: n_generations must be >= 1, got {n_generations}")
        model = RefreshLatencyModel(tech, profile.geometry)
        return model, self.degraded_retention(profile), row_period, mprsf

    @staticmethod
    def _failing_rows(
        model,
        retention: np.ndarray,
        row_period: np.ndarray,
        mprsf: np.ndarray,
        n_generations: int,
    ) -> np.ndarray:
        """Per-row failure mask of the schedule replay (inputs pre-validated).

        Rows sharing a ``(int(retention * 1e4), period, mprsf)`` key share
        the verdict of the key's *first* row, evaluated at that row's
        exact retention.  Each live key leaks by its precomputed decay
        factor per step and fails if it drops below ``fail_fraction``;
        otherwise it is restored — fully on the last step of each
        generation, partially on the others — and retires after
        ``n_generations * (mprsf + 1)`` steps.
        """
        from ..model.leakage import LeakageModel

        if len(retention) == 0:
            return np.zeros(0, dtype=bool)
        counts = np.asarray(mprsf).astype(np.int64)
        keys = np.stack(
            [np.trunc(retention * 1e4), row_period, counts.astype(float)], axis=1
        )
        first, inverse = group_rows(keys)
        # One decay factor per key: the scalar fraction_after chain's
        # division on arrays, then math.exp (not np.exp) per key, so
        # every leak step multiplies by the same double.
        decay = LeakageModel(model.tech).decay_factors(retention[first], row_period[first])
        m = counts[first]
        steps = n_generations * (m + 1)
        partial = model.partial_refresh()
        full = model.full_refresh()
        fail = model.tech.fail_fraction

        key_fails = np.zeros(len(first), dtype=bool)
        active = np.arange(len(first))
        fraction = np.ones(len(first))  # immediately after a full refresh
        step = 0
        while active.size:
            fraction = fraction * decay[active]
            dead = fraction < fail
            if dead.any():
                key_fails[active[dead]] = True
                active, fraction = active[~dead], fraction[~dead]
            is_full = step % (m[active] + 1) == m[active]
            for mask, timing in ((is_full, full), (~is_full, partial)):
                if mask.any():
                    fraction[mask] = model.restored_fractions(fraction[mask], timing)
            step += 1
            live = steps[active] > step
            active, fraction = active[live], fraction[live]
        return key_fails[inverse]
