"""Unit tests for DRAM timing and the oracle's cycle-level bank model."""

import pytest

from repro.sim import DRAMTiming
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.units import MS
from tests.reference_bank import Bank

TECH = DEFAULT_TECH
TIMING = DRAMTiming.from_technology(TECH)
GEO = BankGeometry(16, 4)


class TestDRAMTiming:
    def test_from_technology_trefi(self):
        """tREFI = 64 ms / 8192 quantized at the controller clock."""
        expected = (64 * MS / 8192) / TECH.tck_ctrl
        assert TIMING.trefi == pytest.approx(expected, abs=1.0)

    def test_latency_ordering(self):
        assert TIMING.row_hit_latency < TIMING.row_miss_latency < TIMING.row_conflict_latency

    def test_seconds_cycles_roundtrip(self):
        assert TIMING.cycles(TIMING.seconds(100)) == 100

    def test_validation(self):
        with pytest.raises(ValueError, match="tck"):
            DRAMTiming(tck=0.0)
        with pytest.raises(ValueError, match="trcd"):
            DRAMTiming(tck=1e-9, trcd=0)


class TestBankService:
    def test_first_access_is_miss(self):
        bank = Bank(TIMING, GEO)
        outcome = bank.service(0, 3)
        assert not outcome.row_hit
        assert outcome.latency_cycles == TIMING.row_miss_latency

    def test_second_access_same_row_hits(self):
        bank = Bank(TIMING, GEO)
        bank.service(0, 3)
        outcome = bank.service(100, 3)
        assert outcome.row_hit
        assert outcome.latency_cycles == TIMING.row_hit_latency

    def test_conflict_pays_precharge(self):
        bank = Bank(TIMING, GEO)
        bank.service(0, 3)
        outcome = bank.service(100, 4)
        assert not outcome.row_hit
        assert outcome.latency_cycles == TIMING.row_conflict_latency

    def test_queueing_behind_busy_bank(self):
        bank = Bank(TIMING, GEO)
        first = bank.service(0, 1)
        second = bank.service(1, 1)  # arrives while bank busy
        assert second.start_cycle == first.finish_cycle
        assert second.latency_cycles > TIMING.row_hit_latency

    def test_idle_gap_no_queueing(self):
        bank = Bank(TIMING, GEO)
        first = bank.service(0, 1)
        second = bank.service(first.finish_cycle + 50, 1)
        assert second.start_cycle == first.finish_cycle + 50

    def test_row_bounds(self):
        bank = Bank(TIMING, GEO)
        with pytest.raises(IndexError):
            bank.service(0, 16)


class TestBankRefresh:
    def test_refresh_occupies_trfc(self):
        bank = Bank(TIMING, GEO)
        outcome = bank.refresh(10, trfc_cycles=19)
        assert outcome.start_cycle == 10
        assert outcome.busy_cycles == 19
        assert outcome.finish_cycle == 29

    def test_refresh_closes_open_row(self):
        bank = Bank(TIMING, GEO)
        bank.service(0, 5)
        bank.refresh(bank.busy_until, trfc_cycles=19)
        assert bank.open_row is None
        # Next access is a miss, not a hit.
        outcome = bank.service(bank.busy_until, 5)
        assert not outcome.row_hit

    def test_refresh_of_open_bank_pays_precharge(self):
        bank = Bank(TIMING, GEO)
        bank.service(0, 5)
        outcome = bank.refresh(bank.busy_until, trfc_cycles=19)
        assert outcome.busy_cycles == 19 + TIMING.trp

    def test_refresh_waits_for_busy_bank(self):
        bank = Bank(TIMING, GEO)
        served = bank.service(0, 5)
        outcome = bank.refresh(served.start_cycle + 1, trfc_cycles=19)
        assert outcome.start_cycle == served.finish_cycle

    def test_rejects_non_positive_trfc(self):
        bank = Bank(TIMING, GEO)
        with pytest.raises(ValueError, match="tRFC"):
            bank.refresh(0, 0)

    def test_reset(self):
        bank = Bank(TIMING, GEO)
        bank.service(0, 5)
        bank.reset()
        assert bank.open_row is None
        assert bank.busy_until == 0
