"""Property-based tests: schedule semantics vs brute-force oracles.

:mod:`repro.sim.schedule` is the single source of truth for deadline
placement, and the fused timeline leans on its closed forms much harder
than the event loops do (whole-horizon counts).  These
hypothesis tests pin each closed form against a brute-force oracle that
simply materializes the deadline stream:

* **staggered first deadlines** — ``(r * P_r) // n`` plus the bank
  offset, exactly, and always inside the row's first period;
* **deadline counts** — :func:`deadline_counts` equals counting an
  explicit ``arange`` of dues, for any horizon;
* **bit-exact quantization** — vectorized :func:`period_cycles` equals
  the scalar ``timing.cycles(row_period(r))`` path row for row;
* **tie-breaking** — refresh wins ties: an access landing exactly on a
  deadline restarts the *next* interval's cadence in
  :func:`~repro.sim.timeline.access_resets`, which counts the
  materialized deadlines at or before the access;
* **all-bank REF pacing** — the tREFI stream covers every row once per
  conventional period.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.controller import build_policy
from repro.retention import RefreshBinning, RetentionProfiler
from repro.sim import (
    ALL_BANK_ROWS_PER_REF,
    DRAMTiming,
    all_bank_ref_interval,
    deadline_counts,
    first_deadlines,
    period_cycles,
)
from repro.sim.schedule import CONVENTIONAL_PERIOD
from repro.sim.timeline import access_resets
from repro.technology import BankGeometry, DEFAULT_TECH

TIMING = DRAMTiming.from_technology(DEFAULT_TECH)

periods_lists = st.lists(
    st.integers(min_value=1, max_value=5_000), min_size=1, max_size=48
)


def _brute_force_count(first, period, start, stop):
    """Oracle: materialize the due stream and count dues in [start, stop)."""
    dues = np.arange(first, stop, period, dtype=np.int64)
    return int(np.count_nonzero(dues >= start))


class TestFirstDeadlines:
    @given(periods=periods_lists)
    def test_matches_stagger_formula(self, periods):
        """Row ``r`` of ``n`` first refreshes at exactly ``(r*P_r)//n``."""
        n = len(periods)
        first = first_deadlines(np.asarray(periods, dtype=np.int64))
        expected = [(r * p) // n for r, p in enumerate(periods)]
        assert first.tolist() == expected

    @given(periods=periods_lists)
    def test_first_deadline_inside_first_period(self, periods):
        """The stagger never pushes a row's first due past one period."""
        first = first_deadlines(np.asarray(periods, dtype=np.int64))
        assert (first >= 0).all()
        assert (first < np.asarray(periods, dtype=np.int64)).all()

    @given(periods=periods_lists, data=st.data())
    def test_bank_stagger_formula(self, periods, data):
        """Bank ``b`` adds exactly ``(b * P_r) // (n * n_banks)``."""
        n_banks = data.draw(st.integers(min_value=1, max_value=8))
        bank = data.draw(st.integers(min_value=0, max_value=n_banks - 1))
        periods = np.asarray(periods, dtype=np.int64)
        base = first_deadlines(periods)
        staggered = first_deadlines(periods, bank_index=bank, n_banks=n_banks)
        offsets = (bank * periods) // (len(periods) * n_banks)
        assert np.array_equal(staggered, base + offsets)


class TestDeadlineCounts:
    @given(
        periods=periods_lists,
        duration=st.integers(min_value=0, max_value=60_000),
    )
    def test_matches_bruteforce(self, periods, duration):
        periods = np.asarray(periods, dtype=np.int64)
        first = first_deadlines(periods)
        counts = deadline_counts(first, periods, duration)
        for row in range(len(periods)):
            oracle = _brute_force_count(
                int(first[row]), int(periods[row]), 0, duration
            )
            assert counts[row] == oracle, f"row={row}"


class TestPeriodQuantization:
    @pytest.mark.parametrize("name", ["fixed", "raidr", "vrl", "vrl-access"])
    def test_bit_exact_vs_scalar_path(self, name):
        """Vectorized quantization ≡ the scalar ``timing.cycles`` walk."""
        geometry = BankGeometry(96, 8)
        profile = RetentionProfiler(seed=17).profile(geometry)
        binning = RefreshBinning().assign(profile)
        policy = build_policy(name, DEFAULT_TECH, profile, binning, nbits=2)
        vectorized = period_cycles(policy, TIMING)
        scalar = np.array(
            [TIMING.cycles(policy.row_period(r)) for r in range(policy.n_rows)],
            dtype=np.int64,
        )
        assert np.array_equal(vectorized, scalar)


class TestRefreshWinsTie:
    @given(
        first=st.integers(min_value=0, max_value=5_000),
        period=st.integers(min_value=1, max_value=5_000),
        crossings=st.integers(min_value=0, max_value=20),
        offset=st.sampled_from([-1, 0, 1]),
    )
    def test_access_on_a_deadline_resets_the_next_interval(
        self, first, period, crossings, offset
    ):
        """An access at cycle ``c`` lands in the interval after every
        deadline due at or before ``c``: a deadline on ``c`` is served
        first."""
        cycle = max(0, first + crossings * period + offset)
        _, ordinals = access_resets(
            [(np.array([cycle], dtype=np.int64), np.array([0], dtype=np.int64))],
            np.array([first], dtype=np.int64),
            np.array([period], dtype=np.int64),
        )
        served_first = len(np.arange(first, cycle + 1, period))
        assert ordinals.tolist() == [served_first]


class TestAllBankPacing:
    @given(
        groups=st.integers(min_value=1, max_value=25_000),
    )
    def test_every_row_covered_each_conventional_period(self, groups):
        """REFs per 64 ms times rows-per-REF reaches the whole bank.

        Holds for row counts divisible by :data:`ALL_BANK_ROWS_PER_REF`
        (every real DRAM geometry — rows are powers of two); the
        ``rows // ALL_BANK_ROWS_PER_REF`` floor intentionally rounds
        ragged remainders into the last command.
        """
        rows = groups * ALL_BANK_ROWS_PER_REF
        interval = all_bank_ref_interval(TIMING, rows)
        period = TIMING.cycles(CONVENTIONAL_PERIOD)
        refs_per_period = len(np.arange(0, period, interval))
        assert refs_per_period * ALL_BANK_ROWS_PER_REF >= rows
