"""Cycle-level trace-driven bank simulator, priced as one busy chain.

Interleaves two operation streams against one bank — demand requests
from a :class:`~repro.sim.trace.MemoryTrace` and per-row refresh
deadlines from the policy's periods — under a single-bank model: one
operation at a time, an open-page row buffer, refreshes issued at their
deadline (the controller cannot postpone them indefinitely without
violating retention) and demand requests queued FCFS behind whatever
the bank is doing.  A request pays the hit/miss/conflict latency of
the row-buffer state it finds; a refresh pays its kind's tRFC, plus
tRP when it must close an open row first, and leaves the bank
precharged.

:meth:`BankSimulator.run` prices a whole run with numpy instead of
stepping an event loop:

1. **refresh stream** — :func:`~repro.sim.schedule.crossing_stream`
   lists every deadline in issue order.  Kinds come from the policy's
   :class:`~repro.controller.refresh.TimelineSpec`
   (:func:`~repro.sim._timeline_kernels.crossing_kinds` with the served
   requests' access resets, end phase committed through
   :func:`~repro.sim._timeline_kernels.segmented_fulls`);
2. **requests** — the number of refreshes due at or before each
   arrival (refresh wins ties) fixes its row-buffer outcome with vector
   ops; an access-modulating policy (ChargeCache) prices each window's
   base latencies in one
   :meth:`~repro.controller.refresh.RefreshPolicy.access_latencies`
   call, in request order;
3. **merged chain** — one :func:`~repro.sim.timeline.service_starts`
   max-plus recurrence over the merged refresh and request operations
   gives every start, and latency, stall and refresh stall follow.  The
   chain is walked in windows of :data:`_WINDOW_OPS` operations that
   carry the bank state ``(busy_until, open_row)`` across their
   boundary, so the working set stays small whatever the run length;
4. **replay windows** — for a ``reorders_refresh`` policy (DARP), the
   in-order chain's refreshes that :func:`~repro.sim.schedule.should_defer_refresh`
   would yield to the next pending read are replayed with a scalar step
   of the same rule until the bank state rejoins the in-order chain —
   the same refreshes and requests issued, the same open row, and both
   clocks equal or idle before the next operation — and the replayed
   requests are spliced in.  A replay that outruns its window hands
   its state to the next window instead.

Deferral moves refreshes in time only: refresh kinds follow in-order
issue, as :mod:`~repro.sim.schedule` promises.  The heap-driven event
loop this replaces is kept in ``tests/`` as the differential oracle,
with the one-operation-at-a-time bank model it steps.
:class:`~repro.sim.fastpath.RefreshOverheadEvaluator` prices the
refresh half alone through the fused timeline (invariant 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ..controller.refresh import KIND_FULL, RefreshPolicy
from ..technology import BankGeometry, DEFAULT_GEOMETRY
from ._timeline_kernels import crossing_kinds, segmented_fulls
from .schedule import (
    crossing_stream,
    deadline_counts,
    first_deadlines,
    period_cycles,
    should_defer_refresh,
)
from .stats import RefreshStats, RequestStats
from .timeline import access_resets, service_starts
from .timing import DRAMTiming
from .trace import MemoryTrace

#: Operations of the merged chain priced per window.  Bounds the working
#: set to a few 32 KB arrays whatever the run length, so a run's peak
#: memory stays at that of its trace and refresh stream.
_WINDOW_OPS = 4096


@dataclass
class SimulationResult:
    """Combined refresh and request statistics of one run."""

    refresh: RefreshStats
    requests: RequestStats
    policy_name: str
    trace_name: str

    @property
    def refresh_overhead(self) -> float:
        """Fraction of bank time spent refreshing (the Fig. 4 metric)."""
        return self.refresh.overhead


@dataclass
class _Streams:
    """The run's two operation streams, each in issue order."""

    dues: np.ndarray
    refresh_latency: np.ndarray
    arrivals: np.ndarray
    rows: np.ndarray
    is_write: np.ndarray


class _State(NamedTuple):
    """Bank state between two operations of the chain.

    ``refresh`` / ``request`` count the operations of each stream
    already issued; ``open_row`` is ``-1`` when the bank is precharged
    (after a refresh, or before the first operation).
    """

    refresh: int
    request: int
    busy_until: int
    open_row: int


@dataclass
class _Window:
    """One window of the in-order chain, priced from a carried state.

    Per-operation arrays are indexed by window position, per-request
    arrays by the request's index within the window.
    """

    start: _State
    end: _State
    request_positions: np.ndarray
    times: np.ndarray
    row_open: np.ndarray
    busy_before: np.ndarray
    rows: np.ndarray
    is_write: np.ndarray
    hit: np.ndarray
    latency: np.ndarray
    refresh_stall: np.ndarray
    deferred: np.ndarray


class BankSimulator:
    """Simulates one bank under a refresh policy and an optional trace.

    Args:
        policy: refresh policy (owns per-row periods and full/partial
            decisions).
        timing: command timings.
        geometry: bank geometry; defaults to the policy's row count on
            the paper's 32-column array.

    Refresh deadlines are staggered: row ``r`` first refreshes at
    ``(r * P_r) // rows`` (:func:`~repro.sim.schedule.first_deadlines`),
    spreading commands across the period exactly like a tREFI-paced
    controller does.

    Raises:
        ValueError: if the policy sets both ``reorders_refresh`` and
            ``modulates_access`` — deferral windows are replayed
            without the access-latency hook, so no mechanism may
            combine the two.
    """

    def __init__(
        self,
        policy: RefreshPolicy,
        timing: DRAMTiming,
        geometry: Optional[BankGeometry] = None,
    ):
        self.policy = policy
        self.timing = timing
        self.geometry = geometry or BankGeometry(policy.n_rows, DEFAULT_GEOMETRY.cols)
        if self.geometry.rows != policy.n_rows:
            raise ValueError(
                f"geometry rows {self.geometry.rows} != policy rows {policy.n_rows}"
            )
        if policy.reorders_refresh and policy.modulates_access:
            raise ValueError(
                f"policy {policy.name!r} sets both reorders_refresh and "
                "modulates_access; the engine supports one or the other"
            )

    def run(
        self,
        trace: Optional[MemoryTrace] = None,
        duration_cycles: Optional[int] = None,
    ) -> SimulationResult:
        """Simulate until ``duration_cycles`` (default: trace end).

        Args:
            trace: demand requests; ``None`` simulates refresh-only.
            duration_cycles: simulation horizon; refreshes due and
                requests arriving at or after it are not issued.
                Required when no trace is given.

        Returns:
            A :class:`SimulationResult`; its ``refresh.overhead`` is the
            Fig. 4 metric.

        Raises:
            IndexError: a request before the horizon targets a row
                outside the bank.
            ValueError: an access-modulating policy returned a
                non-positive latency for a request before the horizon.
        """
        if duration_cycles is None:
            if trace is None or len(trace) == 0:
                raise ValueError("need a trace or an explicit duration")
            duration_cycles = trace.duration_cycles + 1
        if duration_cycles <= 0:
            raise ValueError(f"duration must be positive, got {duration_cycles}")

        policy = self.policy
        policy.reset()
        served = 0 if trace is None else int(np.searchsorted(trace.cycles, duration_cycles))
        if served:
            arrivals = np.asarray(trace.cycles[:served], dtype=np.int64)
            rows = np.asarray(trace.rows[:served], dtype=np.int64)
            is_write = np.asarray(trace.is_write[:served], dtype=bool)
        else:
            arrivals = rows = np.empty(0, dtype=np.int64)
            is_write = np.empty(0, dtype=bool)
        if not policy.modulates_access:
            self._check_rows(rows)

        periods = period_cycles(policy, self.timing)
        first = first_deadlines(periods)
        dues, refresh_rows, ordinals = crossing_stream(first, periods, duration_cycles)
        kinds = self._fused_kinds(
            refresh_rows, ordinals, first, periods, duration_cycles, rows, arrivals
        )
        refresh_latency = policy.kind_latencies[kinds].astype(np.int64, copy=False)
        del refresh_rows, ordinals
        refresh_stats = RefreshStats(duration_cycles=duration_cycles)
        refresh_stats.record_batch(kinds, refresh_latency)
        del kinds

        streams = _Streams(dues, refresh_latency, arrivals, rows, is_write)
        request_stats = RequestStats()
        state = _State(0, 0, 0, -1)
        while state.refresh < len(dues) or state.request < len(arrivals):
            window = self._window(state, streams)
            state = self._settle(window, streams, request_stats)
        return SimulationResult(
            refresh=refresh_stats,
            requests=request_stats,
            policy_name=policy.name,
            trace_name=trace.name if trace is not None else "idle",
        )

    # ------------------------------------------------------------------ #
    # Requests                                                            #
    # ------------------------------------------------------------------ #

    def _check_rows(self, rows: np.ndarray) -> None:
        """Raise the bank's ``IndexError`` for the first out-of-range row."""
        bad = np.flatnonzero((rows < 0) | (rows >= self.geometry.rows))
        if len(bad):
            self._check_row(int(rows[bad[0]]))

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.geometry.rows:
            raise IndexError(f"row {row} out of range [0, {self.geometry.rows})")

    def _service_latency(self, hit: np.ndarray, row_open: np.ndarray) -> np.ndarray:
        """Hit/miss/conflict latency: a hit, a precharged bank, or a conflict."""
        timing = self.timing
        return np.where(
            hit,
            timing.row_hit_latency,
            np.where(row_open, timing.row_conflict_latency, timing.row_miss_latency),
        ).astype(np.int64)

    def _access_latencies(self, rows, base, hit, arrivals) -> np.ndarray:
        """A window of requests through an access-modulating policy's hook.

        One :meth:`~repro.controller.refresh.RefreshPolicy.access_latencies`
        call prices the requests in order.  Raises what the bank raises
        for the first request it would refuse: the ``IndexError`` of an
        out-of-range row, or the ``ValueError`` of a non-positive
        latency — the hook sees only the requests ahead of a bad row.
        """
        bad = np.flatnonzero((rows < 0) | (rows >= self.geometry.rows))
        valid = int(bad[0]) if len(bad) else len(rows)
        latency = self.policy.access_latencies(
            rows[:valid], base[:valid], hit[:valid], arrivals[:valid]
        )
        non_positive = np.flatnonzero(latency <= 0)
        if len(non_positive):
            raise ValueError(
                f"service latency must be positive, got {int(latency[non_positive[0]])}"
            )
        if valid < len(rows):
            self._check_row(int(rows[valid]))
        return latency

    # ------------------------------------------------------------------ #
    # Refresh kinds                                                       #
    # ------------------------------------------------------------------ #

    def _fused_kinds(self, refresh_rows, ordinals, first, periods, duration_cycles,
                     rows, arrivals):
        """Kind of every crossing from the policy's closed-form automaton.

        Commits the end-of-run counter phase, so the policy ends exactly
        as the in-order ``refresh_row`` / ``on_access`` sequence would
        leave it — including resets by requests after a row's last
        crossing, which restart no crossing but zero the final phase.
        """
        spec = self.policy.timeline_spec()
        counts = deadline_counts(first, periods, duration_cycles)
        if spec.resets_on_access:
            reset_rows, reset_ordinals = access_resets([(arrivals, rows)], first, periods)
        else:
            reset_rows = reset_ordinals = np.empty(0, dtype=np.int64)
        kinds = crossing_kinds(
            refresh_rows, ordinals, spec.phase, spec.cycle_len, reset_rows, reset_ordinals
        )
        _, final_phase = segmented_fulls(
            counts, spec.phase, spec.cycle_len, reset_rows, reset_ordinals
        )
        spec.commit(final_phase)
        return kinds

    # ------------------------------------------------------------------ #
    # Busy chain                                                          #
    # ------------------------------------------------------------------ #

    def _window(self, state: _State, streams: _Streams) -> _Window:
        """Price the next :data:`_WINDOW_OPS` in-order operations from ``state``.

        Merges the pending refreshes and requests in issue order
        (refresh wins ties), classifies each request against the row
        buffer it finds (routing the window's latencies through an
        access-modulating policy's hook in one call), adds tRP to a
        refresh that closes an open row, and solves the busy chain from
        ``state.busy_until``.  For a reordering policy it also marks the
        refreshes ``should_defer_refresh`` would yield to their next
        pending request.
        """
        timing = self.timing
        n_requests = len(streams.arrivals)
        window_dues = streams.dues[state.refresh:state.refresh + _WINDOW_OPS]
        window_arrivals = streams.arrivals[state.request:state.request + _WINDOW_OPS]
        n_ops = min(_WINDOW_OPS, len(window_dues) + len(window_arrivals))
        # Refreshes ahead of each request (refresh wins ties) place it.
        positions = np.searchsorted(window_dues, window_arrivals, side="right")
        positions += np.arange(len(window_arrivals))
        n_window_requests = int(np.searchsorted(positions, n_ops))
        positions = positions[:n_window_requests]
        window_arrivals = window_arrivals[:n_window_requests]
        requests = slice(state.request, state.request + n_window_requests)
        n_window_refreshes = n_ops - n_window_requests
        is_request = np.zeros(n_ops, dtype=bool)
        is_request[positions] = True
        is_refresh = ~is_request
        times = np.empty(n_ops, dtype=np.int64)
        times[positions] = window_arrivals
        times[is_refresh] = window_dues[:n_window_refreshes]
        # Whether a row is open when each operation arrives: only a
        # request leaves one open.
        row_open = np.empty(n_ops, dtype=bool)
        row_open[0] = state.open_row >= 0
        row_open[1:] = is_request[:-1]

        window_rows = streams.rows[requests]
        open_rows = np.empty(n_window_requests, dtype=np.int64)
        open_rows[:1] = state.open_row
        open_rows[1:] = window_rows[:-1]
        request_open = row_open[positions]
        hit = request_open & (window_rows == open_rows)
        busy = self._service_latency(hit, request_open)
        if self.policy.modulates_access:
            busy = self._access_latencies(window_rows, busy, hit, window_arrivals)

        op_busy = np.empty(n_ops, dtype=np.int64)
        op_busy[positions] = busy
        refreshes = slice(state.refresh, state.refresh + n_window_refreshes)
        op_busy[is_refresh] = (
            streams.refresh_latency[refreshes] + timing.trp * row_open[is_refresh]
        )
        finish = service_starts(times, op_busy, state.busy_until)
        finish += op_busy
        busy_before = np.empty(n_ops, dtype=np.int64)
        busy_before[0] = state.busy_until
        busy_before[1:] = finish[:-1]

        latency = finish[positions] - window_arrivals
        # A request right after a refresh counts its wait as a refresh
        # stall (before the first operation the wait is zero anyway).
        refresh_stall = busy_before[positions] - window_arrivals
        np.maximum(refresh_stall, 0, out=refresh_stall)
        refresh_stall[request_open] = 0

        deferred = np.empty(0, dtype=np.int64)
        if self.policy.reorders_refresh and n_requests:
            refresh_positions = np.flatnonzero(is_refresh)
            # Next pending request of each refresh, as a trace index.
            pending = refresh_positions - np.arange(n_window_refreshes)
            pending += state.request
            has_pending = pending < n_requests
            np.minimum(pending, n_requests - 1, out=pending)
            refresh_dues = times[refresh_positions]
            defer = has_pending & should_defer_refresh(
                np.maximum(refresh_dues, busy_before[refresh_positions]),
                int(self.policy.kind_latencies[KIND_FULL]),
                streams.arrivals[pending],
                streams.is_write[pending],
                refresh_dues + int(self.policy.refresh_slack_cycles),
            )
            deferred = refresh_positions[defer]

        end = _State(
            state.refresh + n_window_refreshes,
            state.request + n_window_requests,
            int(finish[-1]),
            int(window_rows[-1]) if is_request[-1] else -1,
        )
        return _Window(
            start=state, end=end, request_positions=positions, times=times,
            row_open=row_open, busy_before=busy_before, rows=window_rows,
            is_write=streams.is_write[requests], hit=hit, latency=latency,
            refresh_stall=refresh_stall, deferred=deferred,
        )

    def _settle(self, window: _Window, streams: _Streams, stats: RequestStats) -> _State:
        """Record a window's requests, splicing in its deferral replays.

        In-order stretches are recorded in batches; each deferred
        refresh starts a replay from the in-order state ahead of it.  A
        replay that rejoins the window resumes the in-order stretch
        there; one that leaves the window ends it, and its state is
        where the next window starts.

        Returns:
            The state the next window starts from.
        """
        positions = window.request_positions
        recorded = resume = 0
        for position in window.deferred.tolist():
            if position < resume:
                continue
            request = int(np.searchsorted(positions, position))
            self._record(window, stats, recorded, request)
            if window.row_open[position]:
                open_row = int(window.rows[request - 1]) if request else window.start.open_row
            else:
                open_row = -1
            start = _State(
                window.start.refresh + position - request,
                window.start.request + request,
                int(window.busy_before[position]),
                open_row,
            )
            state, resume = self._replay(start, window, streams, stats)
            if resume is None:
                return state
            recorded = int(np.searchsorted(positions, resume))
        self._record(window, stats, recorded, len(positions))
        return window.end

    @staticmethod
    def _record(window, stats, first, stop) -> None:
        """Record window requests ``first..stop-1`` at their in-order outcomes."""
        if stop > first:
            stats.record_batch(
                window.is_write[first:stop], window.latency[first:stop],
                window.hit[first:stop], window.refresh_stall[first:stop],
            )

    def _replay(self, state: _State, window: _Window, streams: _Streams,
                stats: RequestStats) -> tuple[_State, Optional[int]]:
        """Step the event loop's arbitration from a deferred refresh.

        Each step issues the next refresh unless ``should_defer_refresh``
        yields it to the pending read, else serves that request (recorded
        into ``stats``).  The replay stops when it rejoins the window:
        the operations issued are an in-order prefix of the window, the
        open row matches, and both clocks are equal or idle before the
        next operation — from there the window's in-order outcomes
        hold again.

        Returns:
            ``(state, resume)``: ``resume`` is the window position where
            the in-order chain takes over, or ``None`` when the replay
            ran past the window (or the run) and ``state`` is where
            pricing continues.
        """
        timing = self.timing
        plan_latency = int(self.policy.kind_latencies[KIND_FULL])
        slack = int(self.policy.refresh_slack_cycles)
        dues, arrivals, rows = streams.dues, streams.arrivals, streams.rows
        refresh, request, busy, open_row = state
        origin = window.start.refresh + window.start.request
        n_ops = len(window.times)
        while refresh < len(dues) or request < len(arrivals):
            do_refresh = refresh < len(dues) and (
                request == len(arrivals) or dues[refresh] <= arrivals[request]
            )
            if do_refresh and request < len(arrivals):
                due = int(dues[refresh])
                do_refresh = not should_defer_refresh(
                    max(due, busy), plan_latency, int(arrivals[request]),
                    bool(streams.is_write[request]), due + slack,
                )
            if do_refresh:
                busy = max(int(dues[refresh]), busy) + int(streams.refresh_latency[refresh])
                if open_row >= 0:
                    busy += timing.trp
                open_row = -1
                refresh += 1
            else:
                arrival, row = int(arrivals[request]), int(rows[request])
                if open_row == row:
                    service = timing.row_hit_latency
                elif open_row < 0:
                    service = timing.row_miss_latency
                else:
                    service = timing.row_conflict_latency
                stall = max(0, busy - arrival) if open_row < 0 else 0
                busy = max(arrival, busy) + service
                stats.record(
                    bool(streams.is_write[request]), busy - arrival, open_row == row, stall
                )
                open_row = row
                request += 1

            position = refresh + request - origin
            if position >= n_ops:
                break
            in_window = request - window.start.request
            if np.searchsorted(window.request_positions, position) != in_window:
                continue  # not an in-order prefix of the window
            in_order_open = int(window.rows[in_window - 1]) if window.row_open[position] else -1
            in_order_busy = int(window.busy_before[position])
            if open_row == in_order_open and (
                busy == in_order_busy
                or max(busy, in_order_busy) <= window.times[position]
            ):
                return _State(refresh, request, busy, open_row), position
        return _State(refresh, request, busy, open_row), None
