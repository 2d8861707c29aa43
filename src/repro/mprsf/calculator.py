"""MPRSF calculation: iterate the leak/partial-restore cycle (Fig. 1b).

A row's MPRSF is the largest ``m`` such that the schedule

    full, partial x m, full, partial x m, ...

at the row's refresh period never lets the weakest cell's charge drop
below the sensing-failure threshold.  The dynamics per period are:

1. the cell leaks for one refresh period (exponential,
   :class:`~repro.model.leakage.LeakageModel`);
2. if still sensable, a partial refresh restores it along the Eq. 12
   exponential for the truncated ``tau_post`` window
   (:class:`~repro.model.trfc.RefreshLatencyModel.restored_fraction`).

Because a partial refresh restores *less* when starting from a lower
charge, repeated partials converge to a fixed point; strong cells'
fixed points stay above the failure threshold (unbounded MPRSF, capped
by the ``nbits`` counter), weak cells' fall below it after a few
iterations (finite MPRSF) — exactly the behaviour of Fig. 1b.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..circuit.batched import BatchedCircuitSession
from ..guard import assert_finite
from ..model.leakage import LeakageModel
from ..model.trfc import RefreshLatencyModel, RefreshTiming
from ..retention.data_patterns import DataPattern, worst_pattern
from ..retention.profiler import group_rows
from ..technology import BankGeometry, DEFAULT_GEOMETRY, TechnologyParams

# Session-cache key: the refresh phase schedule plus the bank geometry
# that shaped the netlist.  Geometry is part of the key so two
# calculators sharing nothing but timings can never alias a session
# compiled for a different bank.
_SessionKey = Tuple[float, float, float, float, int, int]

#: Sampling step (seconds) of the circuit cross-check transients; they
#: run adaptively, so this is also the initial step and the grid the
#: trajectory is resampled on.
CIRCUIT_DT = 10e-12


class MPRSFCalculator:
    """Computes MPRSF values from the analytical model and a retention profile.

    Args:
        tech: technology parameters.
        geometry: bank geometry.
        refresh_model: optionally share a prebuilt
            :class:`RefreshLatencyModel` (they are deterministic, so
            sharing only saves construction time).
    """

    def __init__(
        self,
        tech: TechnologyParams,
        geometry: BankGeometry = DEFAULT_GEOMETRY,
        refresh_model: Optional[RefreshLatencyModel] = None,
    ):
        self.tech = tech
        self.geometry = geometry
        self.model = refresh_model or RefreshLatencyModel(tech, geometry)
        self.leakage = LeakageModel(tech)
        # One compiled BatchedCircuitSession per (refresh timing,
        # geometry), lazily built by _session_for; keyed on the phase
        # schedule so a retention sweep reuses the same compiled MNA
        # structure, and on the geometry so distinct banks never share
        # a netlist.  Batched sessions are scalar sessions too, so the
        # single-point cross-check reuses the same cache entries.
        self._sessions: Dict[_SessionKey, BatchedCircuitSession] = {}
        # Ending charge fractions per batched transient already run
        # (see circuit_restored_fractions).
        self._restored: Dict[tuple, np.ndarray] = {}

    def charge_trajectory(
        self,
        retention_time: float,
        refresh_period: float,
        timing: RefreshTiming,
        n_periods: int,
        pattern: DataPattern | None = None,
        samples_per_period: int = 32,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Charge-fraction waveform under repeated refreshes (Fig. 1b).

        Every refresh uses the same ``timing`` (pass the full-refresh
        timing for the "with full refresh" trace of Fig. 1b, the partial
        timing for the "with partial refresh" trace).  The cell starts
        fully charged.

        Returns:
            ``(times_seconds, charge_fractions)`` sampled densely enough
            to show the sawtooth.
        """
        if n_periods <= 0:
            raise ValueError(f"n_periods must be positive, got {n_periods}")
        if samples_per_period < 2:
            raise ValueError(f"need >=2 samples per period, got {samples_per_period}")
        pattern = pattern or DataPattern.ALL_ONES
        derating = pattern.retention_derating
        tau = self.leakage.tau(retention_time, derating)

        times = [0.0]
        charges = [1.0]
        fraction = 1.0
        for period_index in range(n_periods):
            t0 = period_index * refresh_period
            ts = np.linspace(0.0, refresh_period, samples_per_period + 1)[1:]
            decayed = fraction * np.exp(-ts / tau)
            times.extend((t0 + ts).tolist())
            charges.extend(decayed.tolist())
            # Refresh event at the period boundary.
            fraction = self.model.restored_fraction(float(decayed[-1]), timing)
            times.append(t0 + refresh_period)
            charges.append(fraction)
        return np.asarray(times), np.asarray(charges)

    def mprsf_for_cell(
        self,
        retention_time: float,
        refresh_period: float,
        partial_timing: Optional[RefreshTiming] = None,
        pattern: DataPattern | None = None,
        max_count: int = 64,
        apply_guard: bool = True,
    ) -> int:
        """MPRSF of a single cell with the given retention time.

        Args:
            retention_time: profiled retention (seconds).
            refresh_period: the row's (binned) refresh period (seconds).
            partial_timing: the partial-refresh timing; defaults to the
                model's 95% partial refresh.
            pattern: stored data pattern; defaults to the worst case
                (the guarantee must hold for any content).
            max_count: cap for effectively-unbounded cells (strong cells
                reach a stable fixed point and never fail; the hardware
                counter width caps them anyway).
            apply_guard: derate the profiled retention by the
                technology's ``retention_guard`` (VRT/profiling safety
                margin).  Disable only for idealized studies.

        Returns:
            The number of consecutive partial refreshes that are safe
            after a full refresh.  0 means every refresh must be full.
        """
        if refresh_period <= 0:
            raise ValueError(f"refresh period must be positive, got {refresh_period}")
        if max_count < 0:
            raise ValueError(f"max_count must be non-negative, got {max_count}")
        pattern = pattern or worst_pattern()
        timing = partial_timing or self.model.partial_refresh()
        derating = pattern.retention_derating
        if apply_guard:
            derating *= self.tech.retention_guard
        fail = self.tech.fail_fraction

        fraction = 1.0  # immediately after a full refresh
        for issued_partials in range(max_count + 1):
            decayed = self.leakage.fraction_after(
                fraction, refresh_period, retention_time, derating
            )
            if decayed < fail:
                # The cell would fail during this period: the refresh
                # closing it must have been full, so only the partials
                # already issued were safe.
                return issued_partials
            restored = self.model.restored_fraction(decayed, timing)
            if restored == fraction:
                break  # a fixed point: every later round repeats this one
            fraction = restored
        return max_count

    def _session_key(self, timing: RefreshTiming) -> _SessionKey:
        """Cache key of a timing's netlist: phase schedule + geometry.

        Geometry is part of the key so two calculators sharing state
        (or one reconfigured) can never alias a session built for a
        different bank — the netlist's lumped capacitances depend on
        the row/column counts.
        """
        tck = self.tech.tck_ctrl
        t_eq_off = timing.tau_eq * tck
        t_wl_on = (timing.tau_eq + timing.tau_fixed // 2) * tck
        t_sa_on = t_wl_on + timing.tau_pre * tck
        return (
            t_eq_off,
            t_wl_on,
            t_sa_on,
            timing.total_seconds,
            self.geometry.rows,
            self.geometry.cols,
        )

    def _session_for(self, timing: RefreshTiming) -> BatchedCircuitSession:
        """The cached compiled session for a refresh timing's netlist.

        The Fig. 2d refresh chain is built with the control phases
        mapped from ``timing`` the same way FIG1A maps them; the
        compiled MNA structure is cached per (phase schedule, geometry)
        so a sweep pays circuit assembly once.
        """
        from ..circuit.dram_circuits import RefreshPhases, build_refresh_circuit

        key = self._session_key(timing)
        session = self._sessions.get(key)
        if session is None:
            phases = RefreshPhases(
                t_eq_off=key[0], t_wl_on=key[1], t_sa_on=key[2]
            )
            circuit = build_refresh_circuit(self.tech, self.geometry, phases)
            session = BatchedCircuitSession(circuit)
            self._sessions[key] = session
        return session

    def circuit_restored_fractions(
        self, start_fractions: np.ndarray, timing: RefreshTiming
    ) -> np.ndarray:
        """Circuit-level cross-check of Eq. 12's ``restored_fraction``.

        Simulates the full refresh chain (Fig. 2d netlist) with the cell
        pre-leaked to each of ``start_fractions`` of ``V_dd``, then reads
        the cell charge at the timing's tRFC.  All starting charges run
        through one :class:`~repro.circuit.BatchedCircuitSession`
        transient — one lane per point, one vectorized device
        linearization per Newton round — instead of one full simulation
        each.  The compiled session comes from :meth:`_session_for`, so
        a sweep pays circuit assembly once.  The adaptive step
        controller (sampled every :data:`CIRCUIT_DT`) is shared by every
        lane, so per lane the waveform matches the lane's one-point run
        within the documented 2 mV circuit envelope (architecture
        invariant 14); a one-point profile *is* that run.

        Results are memoized per calculator on the timing's session key
        (phase schedule, ``total_seconds``, geometry) and the starting
        charges, so restore targets that quantize to the same timing run
        one transient between them.

        Args:
            start_fractions: 1-D array of cell charge fractions when the
                refresh starts (one simulation lane each).
            timing: the refresh timing whose restoration to measure.

        Returns:
            Array of ending charge fractions of ``V_dd``, same length (a
            fresh copy on every call).
        """
        starts = np.asarray(start_fractions, dtype=float).reshape(-1)
        key = (self._session_key(timing), starts.tobytes())
        fractions = self._restored.get(key)
        if fractions is None:
            result = self._session_for(timing).simulate_batch(
                timing.total_seconds,
                CIRCUIT_DT,
                record=["cell"],
                lane_overrides={"cell": starts * self.tech.vdd},
            )
            fractions = assert_finite(
                result.final("cell") / self.tech.vdd,
                "mprsf.circuit_restored_fractions",
                "fractions",
            )
            self._restored[key] = fractions
        return fractions.copy()

    def mprsf_for_points(
        self,
        retention_times: np.ndarray,
        refresh_periods: np.ndarray,
        partial_timing: Optional[RefreshTiming] = None,
        pattern: DataPattern | None = None,
        max_count: int = 64,
        apply_guard: bool = True,
    ) -> np.ndarray:
        """Vectorized :meth:`mprsf_for_cell` over arrays of points.

        The leak/partial-restore fixed point iterates on the whole
        profile at once: per iteration every still-active point leaks by
        its precomputed per-period decay factor and is partially
        restored through
        :meth:`~repro.model.trfc.RefreshLatencyModel.restored_fractions`;
        points whose charge crosses the failure threshold record their
        MPRSF and drop out of the active set, so a profile's cost is
        bounded by its *slowest*-saturating point, not the sum.  Once a
        round kills no point and the restore returns the survivors'
        fractions unchanged, every later round would repeat it, so the
        loop stops there with the survivors at ``max_count``: the cost
        does not grow with the counter width.

        Exactness (architecture invariant 14): the per-point decay
        factors come from
        :meth:`~repro.model.leakage.LeakageModel.decay_factors`, which
        runs :meth:`~repro.model.leakage.LeakageModel.fraction_after`'s
        division chain on arrays in the same IEEE order and keeps one
        ``math.exp`` per point, and the restore step is bit-identical by
        construction, so the result equals the scalar per-point loop
        *exactly* — not approximately.

        Args:
            retention_times: profiled retention times (seconds), any
                shape.
            refresh_periods: refresh periods (seconds), same shape.
            partial_timing, pattern, max_count, apply_guard: as in
                :meth:`mprsf_for_cell`.

        Returns:
            ``int64`` array of MPRSF values, same shape as the inputs.
        """
        ret = np.asarray(retention_times, dtype=float)
        per = np.asarray(refresh_periods, dtype=float)
        if ret.shape != per.shape:
            raise ValueError(
                f"shape mismatch: retention {ret.shape} vs period {per.shape}"
            )
        if max_count < 0:
            raise ValueError(f"max_count must be non-negative, got {max_count}")
        flat_ret = ret.reshape(-1)
        flat_per = per.reshape(-1)
        bad = np.flatnonzero(flat_per <= 0)
        if bad.size:
            raise ValueError(f"refresh period must be positive, got {flat_per[bad[0]]}")
        pattern = pattern or worst_pattern()
        timing = partial_timing or self.model.partial_refresh()
        derating = pattern.retention_derating
        if apply_guard:
            derating *= self.tech.retention_guard
        fail = self.tech.fail_fraction

        n = flat_ret.size
        out = np.full(n, max_count, dtype=np.int64)
        if n == 0:
            return out.reshape(ret.shape)
        decay = self.leakage.decay_factors(flat_ret, flat_per, derating)

        active = np.arange(n)
        fraction = np.ones(n)  # immediately after a full refresh
        for issued_partials in range(max_count + 1):
            decayed = fraction * decay[active]
            dead = decayed < fail
            died = bool(dead.any())
            if died:
                out[active[dead]] = issued_partials
                active = active[~dead]
                decayed = decayed[~dead]
                if active.size == 0:
                    break
            restored = self.model.restored_fractions(decayed, timing)
            if not died and np.array_equal(restored, fraction):
                # Every survivor sits at its fixed point, so every later
                # round repeats this one: they all keep ``max_count``.
                break
            fraction = restored
        return out.reshape(ret.shape)

    def mprsf_for_rows(
        self,
        row_retention: np.ndarray,
        row_period: np.ndarray,
        partial_timing: Optional[RefreshTiming] = None,
        pattern: DataPattern | None = None,
        max_count: int = 64,
        apply_guard: bool = True,
    ) -> np.ndarray:
        """Vector of per-row MPRSF values.

        A row's MPRSF is the minimum over its cells; since profiling
        already reduced rows to their weakest cell's retention
        (:class:`~repro.retention.profiler.RetentionProfile`), evaluating
        the weakest cell suffices — MPRSF is monotone in retention time.

        Rows are deduplicated on (retention rounded to 1 ms, period)
        through :func:`~repro.retention.profiler.group_rows` — 8192 rows
        collapse to a few hundred distinct keys — and the distinct
        points run through the vectorized :meth:`mprsf_for_points` fixed
        point in one pass.
        """
        if row_retention.shape != row_period.shape:
            raise ValueError(
                f"shape mismatch: retention {row_retention.shape} vs period {row_period.shape}"
            )
        out = np.empty(len(row_retention), dtype=np.int64)
        if out.size == 0:
            return out
        timing = partial_timing or self.model.partial_refresh()
        # np.rint rounds half-to-even exactly like the scalar loop's
        # int(round(ret * 1000)) did, so the quantized keys — and with
        # them the results — are unchanged.
        quantized = np.rint(np.asarray(row_retention, dtype=float) * 1000.0)
        keys = np.stack([quantized, np.asarray(row_period, dtype=float)], axis=1)
        first, inverse = group_rows(keys)
        uniq = keys[first]
        values = self.mprsf_for_points(
            uniq[:, 0] / 1000.0,
            uniq[:, 1],
            timing,
            pattern,
            max_count,
            apply_guard,
        )
        out[:] = values[inverse]
        return out
