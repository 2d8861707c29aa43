"""Tests for the multi-bank rank simulator.

:func:`reference_rank_run` is the refresh-only rank event loop the
fused per-bank and all-bank paths replaced, kept here as their oracle:
a ``(due, bank, row)`` heap driving each bank's scalar ``refresh_row``
FCFS on that bank, or the JEDEC ``REF`` cadence blocking every bank.
"""

import copy
import functools
import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.controller import build_policy
from repro.retention import RefreshBinning, RetentionProfiler
from repro.sim import (
    ALL_BANK_ROWS_PER_REF,
    DRAMTiming,
    MemoryTrace,
    RankSimulator,
    RefreshStats,
    all_bank_ref_interval,
    all_bank_trfc,
    first_deadlines,
    period_cycles,
)
from repro.sim.timeline import union_length
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.units import MS
from tests.test_differential_engine_fastpath import _load_custom_policy_module

TECH = DEFAULT_TECH
TIMING = DRAMTiming.from_technology(TECH)
GEO = BankGeometry(64, 8)
N_BANKS = 4

#: Mechanisms the fused rank paths are pinned against the oracle on.
RANK_MECHANISMS = ("fixed", "raidr", "vrl", "vrl-access", "darp")


def _trace(n, duration, seed=0):
    rng = np.random.default_rng(seed)
    return MemoryTrace(
        cycles=np.sort(rng.integers(0, duration, n)).astype(np.int64),
        rows=rng.integers(0, GEO.rows * N_BANKS, n).astype(np.int64),
        is_write=rng.random(n) < 0.3,
        name="rank-trace",
    )


@functools.lru_cache(maxsize=None)
def _built(name, rows, seed):
    """One bank's policy, built once per (mechanism, rows, seed)."""
    geometry = BankGeometry(rows, 8)
    profile = RetentionProfiler(seed=100 + seed).profile(geometry)
    return build_policy(name, TECH, profile, RefreshBinning().assign(profile))


def _policies(name, seeds=range(N_BANKS), rows=GEO.rows):
    """Fresh copies of one policy per bank seed."""
    return [copy.deepcopy(_built(name, rows, seed)) for seed in seeds]


def reference_rank_run(policies, timing, geometry, duration_cycles, all_bank_refresh):
    """The refresh-only rank event loop: the fused paths' oracle.

    Per-bank mode pops ``(due, bank, row)`` deadlines from one heap,
    lets the bank's policy decide each with ``refresh_row``, starts the
    refresh once that bank is free, and re-pushes the row one period
    later.  All-bank mode issues a ``REF`` every
    :func:`all_bank_ref_interval` cycles that occupies every bank for
    :func:`all_bank_trfc`.  Returns the per-bank statistics and the
    blocked cycles (the interval-merge union of every busy window).
    """
    n_banks = len(policies)
    stats = [RefreshStats(duration_cycles=duration_cycles) for _ in policies]
    windows = []
    for policy in policies:
        policy.reset()
    if all_bank_refresh:
        trfc = all_bank_trfc(policies[0].tau_full)
        busy_until = 0
        interval = all_bank_ref_interval(timing, geometry.rows)
        for due in range(0, duration_cycles, interval):
            start = max(due, busy_until)
            busy_until = start + trfc
            windows.append((start, busy_until))
            for bank_stats in stats:
                bank_stats.refresh_cycles += trfc
                bank_stats.full_refreshes += ALL_BANK_ROWS_PER_REF
        return stats, _union_length(windows, duration_cycles)
    periods = [period_cycles(policy, timing) for policy in policies]
    heap = [
        (int(due), bank, row)
        for bank in range(n_banks)
        for row, due in enumerate(
            first_deadlines(periods[bank], bank_index=bank, n_banks=n_banks)
        )
    ]
    heapq.heapify(heap)
    busy_until = [0] * n_banks
    while heap and heap[0][0] < duration_cycles:
        due, bank, row = heapq.heappop(heap)
        command = policies[bank].refresh_row(row)
        start = max(due, busy_until[bank])
        busy_until[bank] = start + command.latency_cycles
        windows.append((start, busy_until[bank]))
        stats[bank].record(command)
        heapq.heappush(heap, (due + int(periods[bank][row]), bank, row))
    return stats, _union_length(windows, duration_cycles)


def _refresh_tuple(stats):
    return (stats.full_refreshes, stats.partial_refreshes, stats.refresh_cycles,
            stats.duration_cycles)


def _policy_state(policy):
    """A policy's mutable end state: its counter file, when it has one."""
    rcount = getattr(policy, "rcount", None)
    return None if rcount is None else rcount.values.tolist()


def _assert_fused_matches_oracle(name, rows, n_banks, duration, all_bank):
    fused_policies = _policies(name, range(n_banks), rows)
    oracle_policies = _policies(name, range(n_banks), rows)
    geometry = BankGeometry(rows, 8)
    got = RankSimulator(
        fused_policies, TIMING, geometry, all_bank_refresh=all_bank
    ).run(duration)
    want_stats, want_blocked = reference_rank_run(
        oracle_policies, TIMING, geometry, duration, all_bank
    )
    where = f"[{name} rows={rows} banks={n_banks} duration={duration} all_bank={all_bank}]"
    assert got.blocked_cycles == want_blocked, where
    assert [_refresh_tuple(s) for s in got.per_bank_refresh] == [
        _refresh_tuple(s) for s in want_stats
    ], where
    assert [_policy_state(p) for p in fused_policies] == [
        _policy_state(p) for p in oracle_policies
    ], where


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


class TestFusedMatchesOracle:
    """Invariant 11 on the rank: fused ≡ the refresh-only event loop."""

    @pytest.mark.parametrize("on_ref_grid", [False, True])
    @pytest.mark.parametrize("all_bank", [False, True])
    @pytest.mark.parametrize("name", RANK_MECHANISMS)
    def test_pinned_configuration(self, name, all_bank, on_ref_grid):
        """800 ms, or a horizon landing exactly on an all-bank REF."""
        duration = (
            60 * all_bank_ref_interval(TIMING, GEO.rows)
            if on_ref_grid
            else TIMING.cycles(800 * MS)
        )
        _assert_fused_matches_oracle(name, GEO.rows, N_BANKS, duration, all_bank)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(RANK_MECHANISMS),
        rows=st.sampled_from([16, 32, 48]),
        n_banks=st.integers(1, 4),
        horizon=st.one_of(
            st.tuples(st.just("ms"), st.integers(1, 600), st.just(0)),
            st.tuples(st.just("refs"), st.integers(1, 150), st.sampled_from([-1, 0, 1])),
        ),
        all_bank=st.booleans(),
    )
    def test_fused_rank_matches_oracle(self, name, rows, n_banks, horizon, all_bank):
        """Per-bank stats, blocked cycles and policy end state agree over
        drawn bank counts, row counts, refresh modes and horizons — in
        milliseconds, or on and one cycle either side of the REF grid."""
        unit, amount, offset = horizon
        if unit == "ms":
            duration = TIMING.cycles(amount * MS)
        else:
            duration = amount * all_bank_ref_interval(TIMING, rows) + offset
        _assert_fused_matches_oracle(name, rows, n_banks, duration, all_bank)

    @pytest.mark.parametrize("all_bank", [False, True])
    def test_example_policy_matches_oracle(self, all_bank):
        """The ``vrl-temp`` example, registered at import, is priced from its
        spec like any in-tree policy."""
        _load_custom_policy_module()
        _assert_fused_matches_oracle("vrl-temp", GEO.rows, N_BANKS, TIMING.cycles(800 * MS),
                                     all_bank)

    def test_repeated_runs_start_fresh(self):
        """Each run resets the policies: a second run prices the same."""
        simulator = RankSimulator(_policies("vrl"), TIMING, GEO)
        duration = TIMING.cycles(300 * MS)
        first, second = simulator.run(duration), simulator.run(duration)
        assert first.blocked_cycles == second.blocked_cycles
        assert [_refresh_tuple(s) for s in first.per_bank_refresh] == [
            _refresh_tuple(s) for s in second.per_bank_refresh
        ]


class TestRankValidation:
    def test_requires_policies(self):
        with pytest.raises(ValueError, match="at least one"):
            RankSimulator([], TIMING, GEO)

    def test_geometry_mismatch(self):
        policy = _policies("raidr", seeds=[0])[0]
        with pytest.raises(ValueError, match="rows"):
            RankSimulator([policy], TIMING, BankGeometry(32, 8))

    @pytest.mark.parametrize("duration", [0, -5])
    def test_requires_positive_duration(self, duration):
        sim = RankSimulator(_policies("raidr"), TIMING, GEO)
        with pytest.raises(ValueError, match="duration must be positive"):
            sim.run(duration)

    def test_trace_is_a_one_line_value_error(self):
        sim = RankSimulator(_policies("raidr"), TIMING, GEO)
        with pytest.raises(ValueError) as raised:
            sim.run(_trace(10, TIMING.cycles(10 * MS)))
        message = str(raised.value)
        assert "\n" not in message
        assert message.startswith("RankSimulator.run")
        assert "MemoryTrace" in message

    @pytest.mark.parametrize("keyword", ["trace", "backend", "bank_of_row"])
    def test_traced_run_options_are_gone(self, keyword):
        sim = RankSimulator(_policies("raidr"), TIMING, GEO)
        with pytest.raises(TypeError, match="unexpected keyword"):
            sim.run(duration_cycles=1000, **{keyword: None})


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

    @pytest.mark.parametrize("all_bank", [False, True])
    def test_result_serves_no_requests(self, all_bank):
        result = RankSimulator(
            _policies("raidr"), TIMING, GEO, all_bank_refresh=all_bank
        ).run(TIMING.cycles(32 * MS))
        assert result.requests.n_requests == 0
        assert result.requests.total_latency_cycles == 0

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
        expected_refs = len(range(0, duration, all_bank_ref_interval(TIMING, GEO.rows)))
        counts = {s.full_refreshes for s in result.per_bank_refresh}
        # Every bank saw every REF (each covering several rows).
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
