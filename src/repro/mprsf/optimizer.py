"""``tau_partial`` selection: sweep the restore-fraction trade-off (Sec. 3.1).

"If we use a large value for tau_partial … negligible reduction … if we
use a small value … a DRAM row would have 0 MPRSF … Therefore, we need
to intelligently choose a value for tau_partial."

The optimizer sweeps candidate restore fractions, computes for each the
quantized partial latency and the per-row MPRSF under every data
pattern (the binding constraint is the worst pattern — guarantees must
hold for arbitrary content), and evaluates the steady-state refresh
overhead of the VRL schedule over the binned retention profile:

    overhead = sum_rows (m_r * tau_p + tau_f) / ((m_r + 1) * P_r)

in refresh cycles per second, compared against RAIDR's
``sum_rows tau_f / P_r``.  The candidate minimizing overhead wins; with
the calibrated technology this reproduces the paper's choice of a 95%
partial restore, i.e. ``tau_partial = 11`` cycles vs ``tau_full = 19``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..guard import assert_finite
from ..model.trfc import RefreshLatencyModel, RefreshTiming
from ..retention.binning import BinningResult
from ..retention.data_patterns import DataPattern
from ..retention.profiler import RetentionProfile
from ..technology import BankGeometry, DEFAULT_GEOMETRY, TechnologyParams
from .calculator import MPRSFCalculator

#: Default candidate restore fractions swept by the optimizer.
DEFAULT_CANDIDATES = (0.80, 0.85, 0.90, 0.95, 0.99)

#: Counter width of the paper's evaluated implementation (Sec. 3.2).
DEFAULT_NBITS = 2

#: Widest counter: the policies keep counters and their cadence
#: ``mprsf + 1`` in int64, which holds ``2^62``.
MAX_NBITS = 62


def check_nbits(nbits: int) -> int:
    """``nbits`` itself, if the policies can hold a counter that wide.

    Raises:
        ValueError: ``nbits`` is below 1 or above :data:`MAX_NBITS`.
    """
    if not 1 <= nbits <= MAX_NBITS:
        raise ValueError(f"nbits must be between 1 and {MAX_NBITS}, got {nbits}")
    return nbits


@dataclass(frozen=True)
class CandidateEvaluation:
    """Outcome of evaluating one restore-fraction candidate.

    Attributes:
        restore_fraction: candidate partial-restore charge target.
        tau_partial_cycles: quantized partial-refresh latency.
        overhead_cycles_per_second: steady-state refresh cycles/second
            of the VRL schedule at this candidate.
        overhead_vs_raidr: same, normalized to the RAIDR baseline
            (1.0 = no benefit).
        mean_mprsf: MPRSF averaged over rows (counter-capped).
        zero_mprsf_rows: rows that cannot sustain any partial refresh.
    """

    restore_fraction: float
    tau_partial_cycles: int
    overhead_cycles_per_second: float
    overhead_vs_raidr: float
    mean_mprsf: float
    zero_mprsf_rows: int


@dataclass(frozen=True)
class CalibrationResult:
    """Analytic-vs-circuit calibration of Eq. 12 over a charge profile.

    Attributes:
        restore_fraction: the partial-restore target calibrated against.
        tau_partial_cycles: the quantized partial latency at that target.
        start_fractions: the starting charge fractions swept.
        analytic_fractions: Eq. 12 ending fractions (vectorized model).
        circuit_fractions: batched circuit-transient ending fractions.
        max_abs_error: worst |analytic - circuit| across the profile.
    """

    restore_fraction: float
    tau_partial_cycles: int
    start_fractions: np.ndarray
    analytic_fractions: np.ndarray
    circuit_fractions: np.ndarray
    max_abs_error: float


@dataclass(frozen=True)
class OptimizerResult:
    """Full sweep result with the winning candidate.

    Attributes:
        best: the overhead-minimizing candidate.
        candidates: every evaluated candidate, in sweep order.
        tau_full_cycles: the (candidate-independent) full latency.
        raidr_overhead_cycles_per_second: the RAIDR reference overhead.
        mprsf: per-row MPRSF at the winning candidate (counter-capped).
    """

    best: CandidateEvaluation
    candidates: tuple[CandidateEvaluation, ...]
    tau_full_cycles: int
    raidr_overhead_cycles_per_second: float
    mprsf: np.ndarray


class TauPartialOptimizer:
    """Finds the refresh-overhead-minimizing partial-refresh latency.

    Args:
        tech: technology parameters.
        geometry: bank geometry.
        nbits: width of the mprsf/rcount counters, 1 to
            :data:`MAX_NBITS`; caps deployable MPRSF values at
            ``2^nbits - 1`` (the paper evaluates nbits = 2).
        patterns: data patterns to guarantee integrity under; defaults
            to all four of Sec. 3.1.  Only the most pessimistic pattern
            binds (derating is monotone), but passing the full set keeps
            the evaluation faithful to the paper's methodology and
            guards against future non-monotone pattern models.
    """

    def __init__(
        self,
        tech: TechnologyParams,
        geometry: BankGeometry = DEFAULT_GEOMETRY,
        patterns: Optional[Sequence[DataPattern]] = None,
        nbits: int = DEFAULT_NBITS,
    ):
        self.nbits = check_nbits(nbits)
        self.tech = tech
        self.geometry = geometry
        self.patterns = tuple(patterns) if patterns is not None else tuple(DataPattern)
        self.model = RefreshLatencyModel(tech, geometry)
        self.calculator = MPRSFCalculator(tech, geometry, self.model)

    def binding_pattern(self) -> DataPattern:
        """The pattern with the smallest retention derating among those set."""
        return min(self.patterns, key=lambda p: p.retention_derating)

    @property
    def mprsf_cap(self) -> int:
        """Largest MPRSF representable by an ``nbits``-wide counter."""
        return (1 << self.nbits) - 1

    def _mprsf(
        self, profile: RetentionProfile, binning: BinningResult, timing: RefreshTiming
    ) -> np.ndarray:
        """Worst-pattern per-row MPRSF for a candidate timing, counter-capped."""
        return self.calculator.mprsf_for_rows(
            profile.row_retention,
            binning.row_period,
            partial_timing=timing,
            pattern=self.binding_pattern(),
            max_count=self.mprsf_cap,
        )

    @staticmethod
    def vrl_overhead(
        mprsf: np.ndarray,
        row_period: np.ndarray,
        tau_partial: int,
        tau_full: int,
    ) -> float:
        """Steady-state VRL refresh overhead in cycles per second.

        Each row cycles through ``m`` partials followed by one full
        refresh, so its average per-refresh cost is
        ``(m tau_p + tau_f) / (m + 1)``, issued every ``P_r`` seconds.
        """
        m = mprsf.astype(float)
        avg_cost = (m * tau_partial + tau_full) / (m + 1.0)
        overhead = float(np.sum(avg_cost / row_period))
        return assert_finite(overhead, "mprsf.vrl_overhead", "overhead")

    @staticmethod
    def raidr_overhead(row_period: np.ndarray, tau_full: int) -> float:
        """RAIDR baseline overhead: every refresh is full."""
        return float(np.sum(tau_full / row_period))

    def evaluate(
        self,
        profile: RetentionProfile,
        binning: BinningResult,
        restore_fraction: float,
    ) -> CandidateEvaluation:
        """Evaluate a single restore-fraction candidate."""
        timing = self.model.partial_refresh(restore_fraction)
        tau_full = self.model.full_refresh().total_cycles
        mprsf = self._mprsf(profile, binning, timing)
        overhead = self.vrl_overhead(
            mprsf, binning.row_period, timing.total_cycles, tau_full
        )
        baseline = self.raidr_overhead(binning.row_period, tau_full)
        return CandidateEvaluation(
            restore_fraction=restore_fraction,
            tau_partial_cycles=timing.total_cycles,
            overhead_cycles_per_second=overhead,
            overhead_vs_raidr=overhead / baseline,
            mean_mprsf=float(mprsf.mean()),
            zero_mprsf_rows=int(np.count_nonzero(mprsf == 0)),
        )

    def optimize(
        self,
        profile: RetentionProfile,
        binning: BinningResult,
        candidates: Iterable[float] = DEFAULT_CANDIDATES,
    ) -> OptimizerResult:
        """Sweep candidates and return the overhead-minimizing one.

        Args:
            profile: the bank's retention profile.
            binning: the RAIDR bin assignment for the same profile.
            candidates: restore fractions to sweep (each in (0, 1)).
        """
        evaluations = tuple(
            self.evaluate(profile, binning, float(f)) for f in candidates
        )
        if not evaluations:
            raise ValueError("no candidates given")
        best = min(evaluations, key=lambda e: e.overhead_cycles_per_second)
        tau_full = self.model.full_refresh().total_cycles
        best_timing = self.model.partial_refresh(best.restore_fraction)
        return OptimizerResult(
            best=best,
            candidates=evaluations,
            tau_full_cycles=tau_full,
            raidr_overhead_cycles_per_second=self.raidr_overhead(
                binning.row_period, tau_full
            ),
            mprsf=self._mprsf(profile, binning, best_timing),
        )

    def calibrate(
        self,
        start_fractions: np.ndarray,
        restore_fraction: Optional[float] = None,
    ) -> CalibrationResult:
        """Calibrate Eq. 12 against the circuit over a charge profile.

        Sweeps an array of starting charge fractions through both the
        analytic restoration model
        (:meth:`~repro.model.trfc.RefreshLatencyModel.restored_fractions`,
        untruncated — the circuit holds the wordline open for the whole
        quantized window) and the batched circuit transient
        (:meth:`~repro.mprsf.calculator.MPRSFCalculator.circuit_restored_fractions`),
        in one multi-lane simulation instead of one transient per point
        (adaptive steps, sampled every
        :data:`~repro.mprsf.calculator.CIRCUIT_DT`).

        Args:
            start_fractions: starting charge fractions, one lane each.
            restore_fraction: partial-restore target defining the timing
                under calibration; defaults to the technology's partial
                target.
        """
        starts = np.asarray(start_fractions, dtype=float).reshape(-1)
        if starts.size == 0:
            raise ValueError("start_fractions must be non-empty")
        timing = self.model.partial_refresh(restore_fraction)
        analytic = self.model.restored_fractions(starts, timing, truncate=False)
        circuit = self.calculator.circuit_restored_fractions(starts, timing)
        error = float(np.max(np.abs(analytic - circuit)))
        return CalibrationResult(
            restore_fraction=timing.restore_fraction,
            tau_partial_cycles=timing.total_cycles,
            start_fractions=starts,
            analytic_fractions=analytic,
            circuit_fractions=circuit,
            max_abs_error=assert_finite(error, "mprsf.calibrate", "max_abs_error"),
        )
