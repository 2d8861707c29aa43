"""Differential harness: event-loop oracle ≡ engine ≡ round walk ≡ fused.

`tests/test_engine_fastpath.py` pins the equivalence on a handful of
hand-picked cases; this harness drives it with seeded *randomized*
configurations — random geometries, policies, counter widths,
temperatures, and adversarial traces — and with the known-nasty event
orderings called out in the fastpath's contract:

* **tie cycles** — a demand access landing exactly on a refresh
  deadline (refresh wins the tie, so the access resets the counter for
  the *next* deadline only);
* **VRL-Access resets** — bursts of accesses inside one interval (one
  reset, not many), accesses one cycle either side of a deadline;
* **empty / out-of-horizon traces** — accesses at or past the
  simulation horizon must not change refresh accounting.

Two layers of equivalence are asserted on every case:

* the merged-chain :class:`BankSimulator` equals
  :func:`reference_bank_run` — the heap-driven event loop the engine
  used to be, kept here as the oracle — on refresh statistics, every
  :class:`RequestStats` field, and the policy's end state (counters,
  ChargeCache lookups/hits);
* the three refresh statistics are bit-identical across *all*
  refresh-evaluation strategies (invariant 11): the engine, the round
  walk (:func:`~repro.sim.fastpath.round_walk`), and the evaluator's
  fused timeline.

Failure messages carry the case's seeds so any discrepancy reproduces
from the log alone.
"""

import copy
import heapq
import importlib.util
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from repro.controller import MECHANISMS, RefreshCommand, RefreshKind, build_policy
from repro.controller.counters import CounterFile
from repro.controller.mechanisms import ChargeCachePolicy, DARPPolicy
from repro.retention import RefreshBinning, RetentionProfiler, TemperatureModel
from repro.sim import (
    BankSimulator,
    DRAMTiming,
    MemoryTrace,
    RefreshOverheadEvaluator,
    RefreshStats,
    RequestStats,
    SimulationResult,
    round_walk,
)
from repro.sim import engine
from repro.sim.schedule import (
    crossing_stream,
    first_deadlines,
    period_cycles,
    should_defer_refresh,
)
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.units import MS
from tests.reference_bank import Bank, charge_cache_latency
from tests.reference_trace import merge_traces

TIMING = DRAMTiming.from_technology(DEFAULT_TECH)

POLICY_NAMES = ("fixed", "raidr", "vrl", "vrl-access")

#: Every refresh-pricing path differentially pinned against the engine.
PRICING_PATHS = {
    "round-walk": round_walk,
    "fused": lambda policy, timing, duration_cycles, trace: RefreshOverheadEvaluator(
        policy, timing
    ).evaluate(duration_cycles, trace),
}


def _policy(name, geometry, profile_seed, nbits=2, temperature=None):
    profile = RetentionProfiler(seed=profile_seed).profile(geometry)
    if temperature is not None:
        profile = TemperatureModel().scale_profile(profile, temperature)
    binning = RefreshBinning().assign(profile)
    return build_policy(name, DEFAULT_TECH, profile, binning, nbits=nbits)


def _row_deadlines(policy, row, duration_cycles):
    """The exact refresh-due cycles of ``row`` (mirrors both simulators)."""
    period = TIMING.cycles(policy.row_period(row))
    first = (row * period) // policy.n_rows
    return np.arange(first, duration_cycles, period, dtype=np.int64)


def _trace_from_events(cycles, rows, seed):
    cycles = np.asarray(cycles, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    order = np.argsort(cycles, kind="stable")
    is_write = np.random.default_rng(seed).random(len(cycles)) < 0.5
    return MemoryTrace(cycles[order], rows[order], is_write, name="diff")


def reference_bank_run(policy, timing, geometry, trace, duration_cycles):
    """The engine's former heap-driven event loop: the differential oracle.

    Pops ``(due, row)`` refresh deadlines from a heap and demand
    requests from the trace in time order against one :class:`Bank`
    (refresh wins ties; a ``reorders_refresh`` policy defers a due
    refresh past a colliding read within its slack), calling the
    policy's scalar hooks one event at a time.  ChargeCache's own
    window hook is stepped one request at a time through
    :func:`charge_cache_latency`; any other access hook is called
    through its one-request view.
    """
    bank = Bank(timing, geometry)
    policy.reset()
    refresh_stats = RefreshStats(duration_cycles=duration_cycles)
    request_stats = RequestStats()
    periods = period_cycles(policy, timing)
    heap = list(zip(first_deadlines(periods).tolist(), range(policy.n_rows)))
    heapq.heapify(heap)
    last_busy_was_refresh = False

    n_requests = len(trace) if trace is not None else 0
    request_index = 0
    reorders = policy.reorders_refresh
    slack = int(policy.refresh_slack_cycles)
    plan_latency = int(policy.kind_latencies[0])

    while True:
        next_refresh_due = heap[0][0] if heap else None
        next_request_at = (
            int(trace.cycles[request_index]) if request_index < n_requests else None
        )
        do_refresh = next_refresh_due is not None and next_refresh_due < duration_cycles
        do_request = next_request_at is not None and next_request_at < duration_cycles
        if not do_refresh and not do_request:
            break
        # Refresh wins ties: a request arriving on a deadline waits.
        service_refresh = do_refresh and (
            not do_request or next_refresh_due <= next_request_at
        )
        if service_refresh and reorders and do_request:
            start = max(next_refresh_due, bank.busy_until)
            service_refresh = not should_defer_refresh(
                start,
                plan_latency,
                next_request_at,
                bool(trace.is_write[request_index]),
                next_refresh_due + slack,
            )
        if service_refresh:
            due, row = heapq.heappop(heap)
            command = policy.refresh_row(row)
            bank.refresh(due, command.latency_cycles)
            refresh_stats.record(command)
            heapq.heappush(heap, (due + int(periods[row]), row))
            last_busy_was_refresh = True
        else:
            arrival = next_request_at
            row = int(trace.rows[request_index])
            is_write = bool(trace.is_write[request_index])
            request_index += 1
            stall = max(0, bank.busy_until - arrival)
            refresh_stall = stall if last_busy_was_refresh else 0
            if policy.modulates_access:
                base, hit = bank.peek_service(row)
                adjusted = access_latency(policy, row, base, hit, arrival)
                outcome = bank.service(arrival, row, latency_cycles=adjusted)
            else:
                outcome = bank.service(arrival, row)
            policy.on_access(row)
            request_stats.record(
                is_write, outcome.latency_cycles, outcome.row_hit, refresh_stall
            )
            last_busy_was_refresh = False

    return SimulationResult(
        refresh=refresh_stats,
        requests=request_stats,
        policy_name=policy.name,
        trace_name=trace.name if trace is not None else "idle",
    )


def access_latency(policy, row, base_cycles, row_hit, cycle):
    """One request through ``policy``'s access hook, as the oracle steps it."""
    if type(policy).access_latencies is ChargeCachePolicy.access_latencies:
        return charge_cache_latency(policy, row, base_cycles, row_hit, cycle)
    return policy.access_latency_cycles(row, base_cycles, row_hit, cycle)


def _policy_state(policy):
    """Snapshot of a policy's mutable end state (counters, caches, tallies)."""
    state = {}
    for name, value in vars(policy).items():
        if isinstance(value, CounterFile):
            state[name] = value.values.tolist()
        elif isinstance(value, (dict, OrderedDict)):
            state[name] = list(value.items())
        elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            state[name] = int(value)
    return state


def _request_fields(stats):
    return {
        "n_requests": stats.n_requests,
        "n_reads": stats.n_reads,
        "n_writes": stats.n_writes,
        "row_hits": stats.row_hits,
        "total_latency_cycles": stats.total_latency_cycles,
        "max_latency_cycles": stats.max_latency_cycles,
        "refresh_stall_cycles": stats.refresh_stall_cycles,
    }


def _refresh_fields(stats):
    return (stats.full_refreshes, stats.partial_refreshes, stats.refresh_cycles,
            stats.duration_cycles)


def _assert_engine_matches_oracle(policy, trace, duration_cycles, context=""):
    """``BankSimulator.run`` ≡ the event-loop oracle on everything it reports.

    Returns the engine's result for further checks.
    """
    geometry = BankGeometry(policy.n_rows, 8)
    # A twin, since a policy's reset() need not clear every field.
    twin = copy.deepcopy(policy)
    want = reference_bank_run(twin, TIMING, geometry, trace, duration_cycles)
    want_state = _policy_state(twin)
    got = BankSimulator(policy, TIMING, geometry).run(
        trace=trace, duration_cycles=duration_cycles
    )
    where = (f"[policy={policy.name!r} rows={policy.n_rows} "
             f"duration={duration_cycles} {context}]")
    assert _refresh_fields(got.refresh) == _refresh_fields(want.refresh), where
    assert _request_fields(got.requests) == _request_fields(want.requests), where
    assert _policy_state(policy) == want_state, where
    return got


def _assert_equivalent(policy, trace, duration_cycles, context=""):
    """Pin the engine to the oracle and every pricing path to the engine.

    ``context`` (seeds, temperatures, geometry) is embedded in the
    failure message so a red case reproduces from the log alone.
    """
    engine = _assert_engine_matches_oracle(policy, trace, duration_cycles, context)
    want = (
        engine.refresh.full_refreshes,
        engine.refresh.partial_refreshes,
        engine.refresh.refresh_cycles,
    )
    for label, price in PRICING_PATHS.items():
        fast = price(policy, TIMING, duration_cycles, trace)
        got = (fast.full_refreshes, fast.partial_refreshes, fast.refresh_cycles)
        assert got == want, (
            f"{label} diverged from engine: "
            f"(full, partial, cycles) {got} != {want} "
            f"[policy={policy.name!r} rows={policy.n_rows} "
            f"duration={duration_cycles} {context}]"
        )


class TestRandomizedDifferential:
    """Fuzzed (geometry, policy, nbits, trace) tuples, bit-compared."""

    @pytest.mark.parametrize("case_seed", range(8))
    def test_random_configuration(self, case_seed):
        rng = np.random.default_rng(1000 + case_seed)
        geometry = BankGeometry(int(rng.integers(16, 97)), 8)
        name = POLICY_NAMES[int(rng.integers(len(POLICY_NAMES)))]
        nbits = int(rng.integers(1, 4))
        policy = _policy(name, geometry, profile_seed=int(rng.integers(1, 100)),
                         nbits=nbits)
        duration_cycles = TIMING.cycles(float(rng.uniform(0.3, 1.2)))
        n_requests = int(rng.integers(200, 3000))
        cycles = rng.integers(0, duration_cycles, size=n_requests)
        rows = rng.integers(0, geometry.rows, size=n_requests)
        trace = _trace_from_events(cycles, rows, seed=case_seed)
        _assert_equivalent(
            policy, trace, duration_cycles,
            context=f"case_seed={case_seed} policy={name} nbits={nbits}",
        )

    @pytest.mark.parametrize("case_seed", range(4))
    def test_random_refresh_only(self, case_seed):
        """No trace at all: the pure-deadline timeline must agree too."""
        rng = np.random.default_rng(2000 + case_seed)
        geometry = BankGeometry(int(rng.integers(16, 129)), 8)
        name = POLICY_NAMES[int(rng.integers(len(POLICY_NAMES)))]
        policy = _policy(name, geometry, profile_seed=int(rng.integers(1, 100)))
        duration_cycles = TIMING.cycles(float(rng.uniform(0.3, 1.5)))
        _assert_equivalent(
            policy, None, duration_cycles, context=f"case_seed={case_seed}"
        )

    @pytest.mark.parametrize("case_seed", range(4))
    def test_random_temperature(self, case_seed):
        """Temperature-scaled retention profiles shift every period bin;
        the quantized schedules must still agree across all pricing paths."""
        rng = np.random.default_rng(3000 + case_seed)
        geometry = BankGeometry(int(rng.integers(16, 97)), 8)
        temperature = float(rng.uniform(30.0, 70.0))
        name = POLICY_NAMES[int(rng.integers(len(POLICY_NAMES)))]
        policy = _policy(
            name, geometry, profile_seed=int(rng.integers(1, 100)),
            temperature=temperature,
        )
        duration_cycles = TIMING.cycles(float(rng.uniform(0.2, 0.8)))
        n_requests = int(rng.integers(100, 1500))
        cycles = rng.integers(0, duration_cycles, size=n_requests)
        rows = rng.integers(0, geometry.rows, size=n_requests)
        trace = _trace_from_events(cycles, rows, seed=case_seed)
        _assert_equivalent(
            policy, trace, duration_cycles,
            context=f"case_seed={case_seed} temperature={temperature:.2f}",
        )

    @pytest.mark.parametrize("case_seed", range(4))
    def test_merged_trace_interleavings(self, case_seed):
        """Multi-programmed interleavings (merge_traces' stable order):
        a hot sequential sweep merged with sparse random traffic."""
        rng = np.random.default_rng(4000 + case_seed)
        geometry = BankGeometry(int(rng.integers(24, 65)), 8)
        policy = _policy("vrl-access", geometry,
                         profile_seed=int(rng.integers(1, 100)))
        duration_cycles = TIMING.cycles(float(rng.uniform(0.4, 1.0)))
        sweep_rows = np.tile(np.arange(geometry.rows), 4)
        sweep_cycles = np.linspace(
            0, duration_cycles - 1, num=len(sweep_rows), dtype=np.int64
        )
        sweep = _trace_from_events(sweep_cycles, sweep_rows, seed=case_seed)
        n_random = int(rng.integers(100, 600))
        random_trace = _trace_from_events(
            rng.integers(0, duration_cycles, size=n_random),
            rng.integers(0, geometry.rows, size=n_random),
            seed=case_seed + 1,
        )
        trace = merge_traces([sweep, random_trace])
        _assert_equivalent(
            policy, trace, duration_cycles, context=f"case_seed={case_seed}"
        )

    @pytest.mark.parametrize("policy_name", ["vrl", "vrl-access"])
    @pytest.mark.parametrize("nbits", [1, 3])
    def test_counter_widths(self, policy_name, nbits):
        rng = np.random.default_rng(77 + nbits)
        geometry = BankGeometry(48, 8)
        policy = _policy(policy_name, geometry, profile_seed=5, nbits=nbits)
        duration_cycles = TIMING.cycles(1500 * MS)
        cycles = rng.integers(0, duration_cycles, size=2000)
        rows = rng.integers(0, geometry.rows, size=2000)
        trace = _trace_from_events(cycles, rows, seed=nbits)
        _assert_equivalent(
            policy, trace, duration_cycles,
            context=f"policy={policy_name} nbits={nbits}",
        )


class TestTieCycles:
    """Accesses landing exactly on refresh deadlines (refresh wins)."""

    @pytest.mark.parametrize("policy_name", ["vrl", "vrl-access"])
    def test_accesses_exactly_on_every_deadline(self, policy_name):
        geometry = BankGeometry(32, 8)
        policy = _policy(policy_name, geometry, profile_seed=9)
        duration_cycles = TIMING.cycles(1024 * MS)
        cycles, rows = [], []
        for row in range(geometry.rows):
            for due in _row_deadlines(policy, row, duration_cycles):
                cycles.append(int(due))
                rows.append(row)
        trace = _trace_from_events(cycles, rows, seed=1)
        _assert_equivalent(policy, trace, duration_cycles)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_single_access_around_one_deadline(self, offset):
        geometry = BankGeometry(32, 8)
        policy = _policy("vrl-access", geometry, profile_seed=9)
        duration_cycles = TIMING.cycles(1024 * MS)
        row = 7
        dues = _row_deadlines(policy, row, duration_cycles)
        assert len(dues) >= 2, "need a mid-run deadline to perturb"
        target = int(dues[len(dues) // 2]) + offset
        if target < 0 or target >= duration_cycles:
            pytest.skip("offset fell outside the horizon")
        trace = _trace_from_events([target], [row], seed=2)
        _assert_equivalent(policy, trace, duration_cycles)

    def test_mixed_ties_and_random_load(self):
        rng = np.random.default_rng(42)
        geometry = BankGeometry(64, 8)
        policy = _policy("vrl-access", geometry, profile_seed=11)
        duration_cycles = TIMING.cycles(900 * MS)
        cycles = list(rng.integers(0, duration_cycles, size=1500))
        rows = list(rng.integers(0, geometry.rows, size=1500))
        for row in range(0, geometry.rows, 3):
            for due in _row_deadlines(policy, row, duration_cycles)[::2]:
                cycles.append(int(due))
                rows.append(row)
        trace = _trace_from_events(cycles, rows, seed=3)
        _assert_equivalent(policy, trace, duration_cycles)


class TestAccessResetSemantics:
    """VRL-Access burst/reset behaviour, differentially checked."""

    def test_burst_in_single_interval_counts_once(self):
        geometry = BankGeometry(32, 8)
        policy = _policy("vrl-access", geometry, profile_seed=9)
        duration_cycles = TIMING.cycles(1024 * MS)
        row = 3
        dues = _row_deadlines(policy, row, duration_cycles)
        assert len(dues) >= 2
        lo, hi = int(dues[0]) + 1, int(dues[1])
        burst = np.linspace(lo, hi - 1, num=40, dtype=np.int64)
        trace = _trace_from_events(burst, [row] * len(burst), seed=4)
        _assert_equivalent(policy, trace, duration_cycles)

    def test_empty_trace_matches_refresh_only(self):
        geometry = BankGeometry(32, 8)
        policy = _policy("vrl", geometry, profile_seed=9)
        duration_cycles = TIMING.cycles(700 * MS)
        trace = _trace_from_events([], [], seed=5)
        _assert_equivalent(policy, trace, duration_cycles)

    def test_accesses_past_horizon_are_inert(self):
        geometry = BankGeometry(32, 8)
        policy = _policy("vrl-access", geometry, profile_seed=9)
        duration_cycles = TIMING.cycles(700 * MS)
        inside = np.random.default_rng(6).integers(0, duration_cycles, size=200)
        beyond = np.arange(duration_cycles, duration_cycles + 50)
        cycles = np.concatenate([inside, beyond])
        rows = np.random.default_rng(7).integers(0, geometry.rows, size=len(cycles))
        trace = _trace_from_events(cycles, rows, seed=8)
        _assert_equivalent(policy, trace, duration_cycles)

    def test_all_rows_hammered_forces_no_full_refreshes(self):
        """Every interval sees an access → VRL-Access stays partial-only
        (after each row's initial full at rcount==mprsf==saturated rows
        it may differ; the assertion is only engine ≡ fastpath)."""
        geometry = BankGeometry(16, 8)
        policy = _policy("vrl-access", geometry, profile_seed=13)
        duration_cycles = TIMING.cycles(1024 * MS)
        cycles, rows = [], []
        for row in range(geometry.rows):
            dues = _row_deadlines(policy, row, duration_cycles)
            mids = (dues[:-1] + dues[1:]) // 2
            cycles.extend(int(c) for c in mids)
            rows.extend([row] * len(mids))
        trace = _trace_from_events(cycles, rows, seed=9)
        _assert_equivalent(policy, trace, duration_cycles)


# --------------------------------------------------------------------- #
# Engine ≡ event-loop oracle: every mechanism, deferral, edge cases      #
# --------------------------------------------------------------------- #

#: Every built-in registry entry; ``vrl-temp`` (the scalar-form example
#: in ``examples/custom_policy.py``) is covered alongside them.
MECHANISM_NAMES = (
    "fixed", "fgr-2x", "fgr-4x", "raidr", "vrl", "vrl-access", "darp",
    "chargecache", "avatar",
)


def _load_custom_policy_module():
    path = Path(__file__).resolve().parents[1] / "examples" / "custom_policy.py"
    spec = importlib.util.spec_from_file_location("custom_policy_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mechanism(name, geometry, profile_seed=5):
    profile = RetentionProfiler(seed=profile_seed).profile(geometry)
    binning = RefreshBinning().assign(profile)
    if name != "vrl-temp":
        return MECHANISMS.build(name, DEFAULT_TECH, profile, binning, nbits=2)
    base = build_policy("vrl-access", DEFAULT_TECH, profile, binning)
    # Hot every third stretch of 20 refreshes so the override fires.
    return _load_custom_policy_module().VRLTempPolicy(
        binning, base.mprsf.values, tau_full=base.tau_full,
        tau_partial=base.tau_partial, nbits=base.nbits,
        hot_windows=lambda index: (index // 20) % 3 == 2,
    )


def _darp(geometry, slack_cycles):
    return DARPPolicy(geometry.rows, _mechanism("fixed", geometry).tau_full, slack_cycles)


def _dues(policy, duration_cycles):
    periods = period_cycles(policy, TIMING)
    return crossing_stream(first_deadlines(periods), periods, duration_cycles)[0]


def _trace(cycles, rows, is_write):
    cycles = np.asarray(cycles, dtype=np.int64)
    order = np.argsort(cycles, kind="stable")
    return MemoryTrace(
        cycles[order], np.asarray(rows, dtype=np.int64)[order],
        np.asarray(is_write, dtype=bool)[order], name="oracle",
    )


def _bursty_trace(rng, policy, duration_cycles, n_random, n_bursts, trace_end=None):
    """Random traffic over a few hot rows plus read bursts at deadlines.

    The bursts land just before, on, and inside refresh windows, so they
    exercise ties, refresh stalls, row-buffer closes, ChargeCache hits,
    and DARP deferral chains.
    """
    trace_end = trace_end or duration_cycles
    hot = rng.integers(0, policy.n_rows, size=4)
    cycles = [rng.integers(0, trace_end, size=n_random)]
    rows = [np.where(rng.random(n_random) < 0.6, rng.choice(hot, n_random),
                     rng.integers(0, policy.n_rows, n_random))]
    dues = _dues(policy, duration_cycles)
    for due in rng.choice(dues, size=min(n_bursts, len(dues)), replace=False):
        size = int(rng.integers(1, 7))
        burst = int(due) - int(rng.integers(0, 6)) + np.cumsum(rng.integers(0, 14, size))
        cycles.append(np.maximum(burst, 0))
        rows.append(rng.choice(hot, size))
    cycles, rows = np.concatenate(cycles), np.concatenate(rows)
    return _trace(cycles, rows, rng.random(len(cycles)) < 0.25)


@pytest.fixture(params=[3, 4096], ids=["window3", "window4096"])
def window_ops(request, monkeypatch):
    """Price the merged chain in tiny windows too, so window boundaries
    (and replays running past them) land everywhere."""
    monkeypatch.setattr(engine, "_WINDOW_OPS", request.param)
    return request.param


class TestMechanismsMatchOracle:
    """``BankSimulator.run`` ≡ the event loop for every mechanism."""

    def test_covers_every_registered_mechanism(self):
        assert set(MECHANISMS.names()) - {"vrl-temp"} == set(MECHANISM_NAMES)

    @pytest.mark.parametrize("name", MECHANISM_NAMES + ("vrl-temp",))
    @pytest.mark.parametrize("case_seed", range(3))
    def test_random_bursty_trace(self, name, case_seed, window_ops):
        rng = np.random.default_rng(5000 + case_seed)
        geometry = BankGeometry(int(rng.integers(24, 80)), 8)
        policy = _mechanism(name, geometry, profile_seed=int(rng.integers(1, 100)))
        duration_cycles = TIMING.cycles(float(rng.uniform(0.2, 0.5)))
        # The trace runs past the horizon: the horizon cuts it.
        trace = _bursty_trace(
            rng, policy, duration_cycles, n_random=int(rng.integers(300, 1500)),
            n_bursts=60, trace_end=int(duration_cycles * 1.1),
        )
        _assert_engine_matches_oracle(
            policy, trace, duration_cycles,
            context=f"case_seed={case_seed} window={window_ops}",
        )

    @pytest.mark.parametrize("name", MECHANISM_NAMES + ("vrl-temp",))
    def test_refresh_only_and_empty_trace(self, name):
        geometry = BankGeometry(40, 8)
        duration_cycles = TIMING.cycles(300 * MS)
        policy = _mechanism(name, geometry)
        idle = _assert_engine_matches_oracle(policy, None, duration_cycles)
        empty = _assert_engine_matches_oracle(policy, _trace([], [], []), duration_cycles)
        assert _request_fields(idle.requests) == _request_fields(empty.requests)
        assert idle.requests.n_requests == 0
        assert idle.trace_name == "idle"

    @pytest.mark.parametrize("name", ["fixed", "vrl-access", "darp", "chargecache"])
    def test_requests_on_every_deadline(self, name):
        """Deadline ties: refresh wins, the request queues behind it."""
        geometry = BankGeometry(32, 8)
        policy = _mechanism(name, geometry)
        duration_cycles = TIMING.cycles(400 * MS)
        dues = _dues(policy, duration_cycles)
        rng = np.random.default_rng(8)
        trace = _trace(dues, rng.integers(0, geometry.rows, len(dues)),
                       rng.random(len(dues)) < 0.3)
        _assert_engine_matches_oracle(policy, trace, duration_cycles)

    def test_chargecache_lookups_and_hits(self, window_ops):
        geometry = BankGeometry(48, 8)
        policy = _mechanism("chargecache", geometry)
        duration_cycles = TIMING.cycles(300 * MS)
        rng = np.random.default_rng(9)
        trace = _bursty_trace(rng, policy, duration_cycles, 2000, 80)
        _assert_engine_matches_oracle(policy, trace, duration_cycles)
        assert policy.lookups == int(np.count_nonzero(trace.cycles < duration_cycles))
        assert 0 < policy.hits < policy.lookups


class TestDeferralReplay:
    """DARP's out-of-order windows, replayed against the oracle."""

    def _reads_in_windows(self, policy, duration_cycles, offsets, is_write=False):
        dues = _dues(policy, duration_cycles)[::3]
        cycles = (dues[:, None] + np.asarray(offsets)[None, :]).ravel()
        rows = np.resize(np.arange(policy.n_rows), len(cycles))
        return _trace(cycles, rows, np.full(len(cycles), is_write))

    def test_reads_inside_refresh_windows_defer(self, window_ops):
        geometry = BankGeometry(32, 8)
        policy = _darp(geometry, slack_cycles=8 * TIMING.trefi)
        duration_cycles = TIMING.cycles(400 * MS)
        trace = self._reads_in_windows(policy, duration_cycles, [0, 3, 9])
        deferred = _assert_engine_matches_oracle(policy, trace, duration_cycles)
        in_order = _assert_engine_matches_oracle(
            _darp(geometry, slack_cycles=0), trace, duration_cycles
        )
        assert (deferred.requests.refresh_stall_cycles
                < in_order.requests.refresh_stall_cycles)
        assert _refresh_fields(deferred.refresh) == _refresh_fields(in_order.refresh)

    def test_zero_slack_is_in_order(self):
        geometry = BankGeometry(32, 8)
        duration_cycles = TIMING.cycles(400 * MS)
        fixed = _mechanism("fixed", geometry)
        trace = self._reads_in_windows(fixed, duration_cycles, [0, 2, 5, 30])
        zero = _assert_engine_matches_oracle(
            _darp(geometry, slack_cycles=0), trace, duration_cycles
        )
        plain = _assert_engine_matches_oracle(fixed, trace, duration_cycles)
        assert _request_fields(zero.requests) == _request_fields(plain.requests)

    @pytest.mark.parametrize("slack_cycles", [1, 12, 40])
    def test_exhausted_slack(self, slack_cycles, window_ops):
        """A read train longer than the slack: the refresh is forced in."""
        geometry = BankGeometry(32, 8)
        policy = _darp(geometry, slack_cycles=slack_cycles)
        duration_cycles = TIMING.cycles(400 * MS)
        trace = self._reads_in_windows(policy, duration_cycles, np.arange(0, 120, 6))
        _assert_engine_matches_oracle(
            policy, trace, duration_cycles, context=f"slack={slack_cycles}"
        )

    def test_writes_never_defer(self):
        geometry = BankGeometry(32, 8)
        duration_cycles = TIMING.cycles(400 * MS)
        policy = _darp(geometry, slack_cycles=8 * TIMING.trefi)
        trace = self._reads_in_windows(policy, duration_cycles, [0, 3, 9], is_write=True)
        writes = _assert_engine_matches_oracle(policy, trace, duration_cycles)
        plain = _assert_engine_matches_oracle(
            _mechanism("fixed", geometry), trace, duration_cycles
        )
        assert _request_fields(writes.requests) == _request_fields(plain.requests)

    @pytest.mark.parametrize("case_seed", range(4))
    def test_deferral_chains_across_reads(self, case_seed, window_ops):
        """Back-to-back reads re-plan the deferred refresh several times,
        mixed with writes that cut the chain."""
        rng = np.random.default_rng(6000 + case_seed)
        geometry = BankGeometry(int(rng.integers(16, 48)), 8)
        policy = _darp(geometry, slack_cycles=int(rng.integers(20, 400)))
        duration_cycles = TIMING.cycles(300 * MS)
        dues = _dues(policy, duration_cycles)
        cycles, rows = [], []
        for due in rng.choice(dues, size=min(len(dues), 50), replace=False):
            train = int(due) - 2 + np.cumsum(rng.integers(1, 25, size=int(rng.integers(2, 9))))
            cycles.append(train)
            rows.append(rng.integers(0, geometry.rows, len(train)))
        cycles, rows = np.concatenate(cycles), np.concatenate(rows)
        trace = _trace(cycles, rows, rng.random(len(cycles)) < 0.2)
        _assert_engine_matches_oracle(
            policy, trace, duration_cycles, context=f"case_seed={case_seed}"
        )


class TestEngineErrors:
    """Errors the bank raised per request, raised only for served ones."""

    @pytest.mark.parametrize("name", ["fixed", "chargecache", "vrl-temp"])
    def test_out_of_range_row_before_horizon_raises(self, name):
        geometry = BankGeometry(32, 8)
        duration_cycles = TIMING.cycles(200 * MS)
        trace = _trace([10, 500, 900], [3, 32, 4], [False, False, False])
        policy = _mechanism(name, geometry)
        with pytest.raises(IndexError) as oracle_error:
            reference_bank_run(policy, TIMING, geometry, trace, duration_cycles)
        with pytest.raises(IndexError) as engine_error:
            BankSimulator(policy, TIMING, geometry).run(trace, duration_cycles)
        assert str(engine_error.value) == str(oracle_error.value)

    def test_geometry_must_match_the_policy_rows(self):
        policy = _mechanism("fixed", BankGeometry(32, 8))
        with pytest.raises(ValueError, match="geometry rows 64 != policy rows 32"):
            BankSimulator(policy, TIMING, BankGeometry(64, 8))

    @pytest.mark.parametrize("name", ["fixed", "chargecache", "vrl-access"])
    def test_out_of_range_row_after_horizon_is_inert(self, name):
        geometry = BankGeometry(32, 8)
        duration_cycles = TIMING.cycles(200 * MS)
        trace = _trace([10, 500, duration_cycles, duration_cycles + 7],
                       [3, 5, 99, 4], [False, True, False, False])
        _assert_equivalent(_mechanism(name, geometry), trace, duration_cycles)

    def test_non_positive_hook_latency_raises(self):
        class ZeroLatency(ChargeCachePolicy):
            def access_latencies(self, rows, base_cycles, row_hit, cycles):
                latencies = super().access_latencies(rows, base_cycles, row_hit, cycles)
                latencies[rows == 7] = 0
                return latencies

        geometry = BankGeometry(32, 8)
        duration_cycles = TIMING.cycles(200 * MS)
        trace = _trace([10, 500, 900], [3, 7, 4], [False, False, False])
        policy = ZeroLatency(geometry.rows, 19, discount_cycles=4, lifetime_cycles=10_000)
        with pytest.raises(ValueError) as oracle_error:
            reference_bank_run(policy, TIMING, geometry, trace, duration_cycles)
        with pytest.raises(ValueError) as engine_error:
            BankSimulator(policy, TIMING, geometry).run(trace, duration_cycles)
        assert str(engine_error.value) == str(oracle_error.value)
        # Past the horizon the hook is never consulted.
        _assert_engine_matches_oracle(policy, trace, 400)

    def test_reordering_and_modulating_policy_is_rejected(self):
        class Both(ChargeCachePolicy):
            reorders_refresh = True

        policy = Both(32, 19, discount_cycles=4, lifetime_cycles=10_000)
        with pytest.raises(ValueError, match="reorders_refresh.*modulates_access"):
            BankSimulator(policy, TIMING)
        assert not any(
            info.reorders_refresh and info.modulates_access
            for info in (MECHANISMS.get(name) for name in MECHANISM_NAMES)
        )


class ScalarChargeCache(ChargeCachePolicy):
    """ChargeCache customized in scalar form: the engine walks its hooks."""

    name = "chargecache-scalar"

    def on_access(self, row):
        super().on_access(row)


class TestScalarWalk:
    """Policies the fused automaton cannot represent, through the walk."""

    def test_access_modulating_scalar_policy_matches_oracle(self, window_ops):
        geometry = BankGeometry(40, 8)
        policy = ScalarChargeCache(geometry.rows, 19, discount_cycles=4,
                                   lifetime_cycles=TIMING.cycles(1 * MS))
        assert not policy.supports_fused_timeline()
        duration_cycles = TIMING.cycles(300 * MS)
        trace = _bursty_trace(np.random.default_rng(11), policy, duration_cycles, 1500, 60)
        _assert_engine_matches_oracle(policy, trace, duration_cycles)
        assert 0 < policy.hits < policy.lookups

    def test_non_positive_refresh_latency_raises(self):
        class ZeroRefresh(ScalarChargeCache):
            def refresh_row(self, row):
                return RefreshCommand(row, RefreshKind.FULL, 0)

        geometry = BankGeometry(16, 8)
        policy = ZeroRefresh(geometry.rows, 19, discount_cycles=4, lifetime_cycles=100)
        duration_cycles = TIMING.cycles(100 * MS)
        with pytest.raises(ValueError) as oracle_error:
            reference_bank_run(policy, TIMING, geometry, None, duration_cycles)
        with pytest.raises(ValueError) as engine_error:
            BankSimulator(policy, TIMING, geometry).run(None, duration_cycles)
        assert str(engine_error.value) == str(oracle_error.value)
