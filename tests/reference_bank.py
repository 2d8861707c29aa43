"""Test-side reference models the bank engine is checked against.

* :class:`Bank` — a cycle-level single-bank model: a resource that is
  busy while serving a request or a refresh; a refresh makes the bank
  unavailable for the ``tRFC`` of the issued operation (the source of
  the paper's refresh performance overhead).  Open-page policy: the
  last activated row stays open until a conflicting access or a
  refresh closes it.  The event-loop oracle
  (``tests/test_differential_engine_fastpath.py::reference_bank_run``)
  steps it one operation at a time;
* :func:`charge_cache_latency` — ChargeCache's table as the per-request
  lookup-then-insert state machine it was written as, stepped one
  request at a time against a
  :class:`~repro.controller.mechanisms.ChargeCachePolicy`'s state;
  :meth:`~repro.controller.mechanisms.ChargeCachePolicy.access_latencies`
  prices whole windows and must leave the same state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.controller.mechanisms import ChargeCachePolicy
from repro.sim import DRAMTiming
from repro.technology import BankGeometry, DEFAULT_GEOMETRY


@dataclass(frozen=True)
class ServiceOutcome:
    """Result of the bank serving one demand request."""

    start_cycle: int
    finish_cycle: int
    latency_cycles: int
    row_hit: bool


@dataclass(frozen=True)
class RefreshOutcome:
    """Result of the bank executing one refresh operation."""

    start_cycle: int
    finish_cycle: int
    busy_cycles: int


class Bank:
    """One DRAM bank with an open-row buffer and a busy-until clock.

    Args:
        timing: command timings.
        geometry: array geometry (bounds row indices).
    """

    def __init__(self, timing: DRAMTiming, geometry: BankGeometry = DEFAULT_GEOMETRY):
        self.timing = timing
        self.geometry = geometry
        self.open_row: Optional[int] = None
        self.busy_until: int = 0

    def reset(self) -> None:
        """Return to the power-up state (precharged, idle at cycle 0)."""
        self.open_row = None
        self.busy_until = 0

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.geometry.rows:
            raise IndexError(f"row {row} out of range [0, {self.geometry.rows})")

    def peek_service(self, row: int) -> tuple[int, bool]:
        """``(latency_cycles, row_hit)`` the next service of ``row`` would pay.

        Non-mutating preview of the hit/miss/conflict outcome, used by
        the oracle to consult an access-modulating policy's
        access-latency hook before committing the service.
        """
        self._check_row(row)
        if self.open_row == row:
            return self.timing.row_hit_latency, True
        if self.open_row is None:
            return self.timing.row_miss_latency, False
        return self.timing.row_conflict_latency, False

    def service(
        self,
        arrival_cycle: int,
        row: int,
        latency_cycles: Optional[int] = None,
    ) -> ServiceOutcome:
        """Serve a demand request to ``row`` arriving at ``arrival_cycle``.

        The request waits for the bank to go idle, then pays the
        hit/miss/conflict latency; the bank is occupied for that whole
        window (single in-flight request — FCFS, no command pipelining).
        ``latency_cycles`` overrides the service window (the seam for
        access-modulating mechanisms like ChargeCache); the row-buffer
        state transition is identical either way.
        """
        self._check_row(row)
        start = max(arrival_cycle, self.busy_until)
        latency, hit = self.peek_service(row)
        if latency_cycles is not None:
            if latency_cycles <= 0:
                raise ValueError(
                    f"service latency must be positive, got {latency_cycles}"
                )
            latency = int(latency_cycles)
        self.open_row = row
        finish = start + latency
        self.busy_until = finish
        return ServiceOutcome(
            start_cycle=start,
            finish_cycle=finish,
            latency_cycles=finish - arrival_cycle,
            row_hit=hit,
        )

    def refresh(self, due_cycle: int, trfc_cycles: int) -> RefreshOutcome:
        """Execute a refresh of latency ``trfc_cycles`` due at ``due_cycle``.

        A refresh requires a precharged bank: if a row is open, the
        precharge latency is paid first.  The bank is unavailable for
        the entire window — the Fig. 4 overhead.
        """
        if trfc_cycles <= 0:
            raise ValueError(f"tRFC must be positive, got {trfc_cycles}")
        start = max(due_cycle, self.busy_until)
        busy = trfc_cycles
        if self.open_row is not None:
            busy += self.timing.trp
            self.open_row = None
        finish = start + busy
        self.busy_until = finish
        return RefreshOutcome(start_cycle=start, finish_cycle=finish, busy_cycles=busy)


def _evict(policy: ChargeCachePolicy, row: int) -> None:
    del policy._expiry[row]
    policy.valid.reset(row)


def _lookup(policy: ChargeCachePolicy, row: int, cycle: int) -> bool:
    policy.lookups += 1
    expiry = policy._expiry.get(row)
    if expiry is None:
        return False
    if cycle >= expiry:
        _evict(policy, row)
        return False
    policy.hits += 1
    return True


def _insert(policy: ChargeCachePolicy, row: int, cycle: int) -> None:
    if row in policy._expiry:
        policy._expiry.move_to_end(row)
    elif len(policy._expiry) >= policy.capacity:
        oldest, _ = policy._expiry.popitem(last=False)
        policy.valid.reset(oldest)
    policy._expiry[row] = cycle + policy.lifetime_cycles
    policy.valid.increment(row)


def charge_cache_latency(
    policy: ChargeCachePolicy, row: int, base_cycles: int, row_hit: bool, cycle: int
) -> int:
    """One request through ChargeCache's table: lookup, then insert.

    A live entry (expiry still ahead of ``cycle``) is a hit; an expired
    one is evicted.  The insert renews the row's expiry and moves it to
    the back of the least-recently-used order, evicting the front when
    a new row finds the table full.  A hit that must activate (not a
    row-buffer hit) is discounted, never below one cycle.
    """
    policy._check_row(row)
    hit = _lookup(policy, row, cycle)
    _insert(policy, row, cycle)
    if hit and not row_hit:
        return max(1, base_cycles - policy.discount_cycles)
    return base_cycles
