"""Tests for the multi-bank rank simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.controller import build_policy
from repro.retention import RefreshBinning, RetentionProfiler
from repro.sim import DRAMTiming, MemoryTrace, RankSimulator
from repro.sim import rank as rank_module
from repro.sim.timeline import union_length
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.units import MS

TECH = DEFAULT_TECH
TIMING = DRAMTiming.from_technology(TECH)
GEO = BankGeometry(64, 8)
N_BANKS = 4


def _policies(name, seeds=range(N_BANKS)):
    policies = []
    for seed in seeds:
        profile = RetentionProfiler(seed=100 + seed).profile(GEO)
        binning = RefreshBinning().assign(profile)
        policies.append(build_policy(name, TECH, profile, binning))
    return policies


def _trace(n, duration, seed=0):
    rng = np.random.default_rng(seed)
    return MemoryTrace(
        cycles=np.sort(rng.integers(0, duration, n)).astype(np.int64),
        rows=rng.integers(0, GEO.rows * N_BANKS, n).astype(np.int64),
        is_write=rng.random(n) < 0.3,
        name="rank-trace",
    )


def _union_length(intervals, horizon):
    """Merge sorted ``[start, end)`` tuples one by one (the oracle)."""
    if not intervals:
        return 0
    intervals = sorted(intervals)
    total = 0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            total += min(current_end, horizon) - min(current_start, horizon)
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    total += min(current_end, horizon) - min(current_start, horizon)
    return max(0, total)


def _union(intervals, horizon):
    """:func:`union_length` over a list of ``(start, end)`` tuples."""
    starts = np.array([s for s, _ in intervals], dtype=np.int64)
    ends = np.array([e for _, e in intervals], dtype=np.int64)
    return union_length(starts, ends, horizon)


class TestUnionLength:
    def test_empty(self):
        assert _union([], 100) == 0

    def test_disjoint(self):
        assert _union([(0, 10), (20, 30)], 100) == 20

    def test_overlapping_merged(self):
        assert _union([(0, 10), (5, 15)], 100) == 15

    def test_clipped_to_horizon(self):
        assert _union([(90, 120)], 100) == 10

    def test_nested(self):
        assert _union([(0, 100), (10, 20)], 1000) == 100

    def test_unsorted_input(self):
        assert _union([(20, 30), (0, 10)], 100) == 20

    @settings(max_examples=200, deadline=None)
    @given(
        intervals=st.lists(
            st.tuples(st.integers(0, 1_500), st.integers(0, 300)).map(
                lambda p: (p[0], p[0] + p[1])
            ),
            max_size=40,
        ),
        horizon=st.integers(1, 1_200),
    )
    def test_matches_interval_merge_oracle(self, intervals, horizon):
        """Touching, nested and empty intervals, and ones that start or
        end past the horizon, give the oracle's length."""
        assert _union(intervals, horizon) == _union_length(intervals, horizon)


class TestEventLoopBlockedCycles:
    @pytest.mark.parametrize("all_bank", [False, True])
    def test_blocked_cycles_are_the_union_of_refresh_windows(
        self, monkeypatch, all_bank
    ):
        """A traced run hands one busy window per refresh command to
        :func:`union_length`, and its blocked cycles equal the
        interval-merge oracle over those windows."""
        seen = []

        def spy(starts, ends, horizon):
            seen.append((starts.tolist(), ends.tolist(), horizon))
            return union_length(starts, ends, horizon)

        monkeypatch.setattr(rank_module, "union_length", spy)
        duration = TIMING.cycles(128 * MS)
        result = RankSimulator(
            _policies("vrl"), TIMING, GEO, all_bank_refresh=all_bank
        ).run(_trace(600, duration), duration)
        [(starts, ends, horizon)] = seen
        assert horizon == duration
        if all_bank:
            rows_per_ref = rank_module.ALL_BANK_ROWS_PER_REF
            commands = result.per_bank_refresh[0].full_refreshes // rows_per_ref
        else:
            commands = sum(s.total_refreshes for s in result.per_bank_refresh)
        assert len(starts) == len(ends) == commands > 0
        assert result.blocked_cycles == _union_length(
            list(zip(starts, ends)), horizon
        )


class TestRankValidation:
    def test_requires_policies(self):
        with pytest.raises(ValueError, match="at least one"):
            RankSimulator([], TIMING, GEO)

    def test_geometry_mismatch(self):
        policy = _policies("raidr", seeds=[0])[0]
        with pytest.raises(ValueError, match="rows"):
            RankSimulator([policy], TIMING, BankGeometry(32, 8))

    def test_requires_duration_or_trace(self):
        sim = RankSimulator(_policies("raidr"), TIMING, GEO)
        with pytest.raises(ValueError, match="duration"):
            sim.run()

    def test_bad_bank_indices(self):
        sim = RankSimulator(_policies("raidr"), TIMING, GEO)
        duration = TIMING.cycles(10 * MS)
        trace = _trace(10, duration)
        with pytest.raises(ValueError, match="out of range"):
            sim.run(trace, duration, bank_of_row=np.full(10, N_BANKS))

    def test_bank_of_row_shape(self):
        sim = RankSimulator(_policies("raidr"), TIMING, GEO)
        duration = TIMING.cycles(10 * MS)
        trace = _trace(10, duration)
        with pytest.raises(ValueError, match="shape"):
            sim.run(trace, duration, bank_of_row=np.zeros(5, dtype=int))


class TestPerBankMode:
    def test_refresh_counts_match_single_bank_expectation(self):
        sim = RankSimulator(_policies("fixed"), TIMING, GEO)
        duration = TIMING.cycles(64 * MS)
        result = sim.run(duration_cycles=duration)
        for stats in result.per_bank_refresh:
            assert stats.total_refreshes == GEO.rows
        assert result.mode == "per-bank"

    def test_blocked_fraction_below_sum_of_overheads(self):
        """Staggering means rank blockage can exceed one bank's overhead
        but never the sum across banks (intervals overlap at worst)."""
        sim = RankSimulator(_policies("raidr"), TIMING, GEO)
        duration = TIMING.cycles(512 * MS)
        result = sim.run(duration_cycles=duration)
        per_bank = [s.overhead for s in result.per_bank_refresh]
        assert max(per_bank) <= result.blocked_fraction <= sum(per_bank) + 1e-9

    def test_requests_routed_to_banks(self):
        sim = RankSimulator(_policies("raidr"), TIMING, GEO)
        duration = TIMING.cycles(32 * MS)
        trace = _trace(400, duration)
        result = sim.run(trace, duration)
        assert result.requests.n_requests == 400

    def test_vrl_reduces_rank_refresh_cycles(self):
        duration = TIMING.cycles(1024 * MS)
        results = {}
        for name in ("raidr", "vrl"):
            sim = RankSimulator(_policies(name), TIMING, GEO)
            results[name] = sim.run(duration_cycles=duration).total_refresh_cycles
        assert results["vrl"] < results["raidr"]


class TestAllBankMode:
    def test_ref_blocks_every_bank(self):
        sim = RankSimulator(
            _policies("fixed"), TIMING, GEO, all_bank_refresh=True
        )
        duration = TIMING.trefi * 10
        result = sim.run(duration_cycles=duration)
        assert result.mode == "all-bank"
        expected_refs = len(list(sim._all_bank_refreshes(duration)))
        counts = {s.full_refreshes for s in result.per_bank_refresh}
        # Every bank saw every REF (each covering several rows).  The
        # constant lives in the shared schedule layer; sim.rank
        # re-exports it for back-compat.
        from repro.sim.schedule import ALL_BANK_ROWS_PER_REF

        assert counts == {expected_refs * ALL_BANK_ROWS_PER_REF}

    def test_per_bank_mode_blocks_rank_less(self):
        """The rank-availability benefit of row-targeted refresh."""
        duration = TIMING.cycles(128 * MS)
        all_bank = RankSimulator(
            _policies("fixed"), TIMING, GEO, all_bank_refresh=True
        ).run(duration_cycles=duration)
        per_bank = RankSimulator(
            _policies("raidr"), TIMING, GEO
        ).run(duration_cycles=duration)
        assert per_bank.blocked_fraction < all_bank.blocked_fraction
