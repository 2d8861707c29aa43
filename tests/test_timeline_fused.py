"""Unit tests of the fused timeline: kernels, evaluator paths, fail-loud.

The three-way differential harness
(``tests/test_differential_engine_fastpath.py``) pins the fused
timeline against the engine end to end; this module tests its parts:

* **kernel equivalence** — the vectorized scatter kernel is
  bit-identical to a per-row loop of the same segment arithmetic on
  randomized inputs and matches a brute-force walk of Algorithm 1's
  counter, and reset-aware per-crossing kinds agree with the segment
  totals;
* **busy-chain closed forms** — :func:`service_starts` matches the
  FCFS recurrence and :func:`union_length` matches the interval-merge
  oracle kept in ``tests/test_rank.py``;
* **access resets** — the bitmap :func:`access_resets` returns exactly
  what the sort-unique of packed keys it replaced returns, whole-bank
  and blocked;
* **evaluator paths** — the evaluator takes no ``backend=``; its
  read-only ``backend`` follows the policy, and its fused path matches
  :func:`round_walk`, the oracle (the rank's fused paths are pinned
  against their event-loop oracle in ``tests/test_rank.py``);
* **scalar fallback** — a policy customizing only scalar hooks (the
  ``examples/custom_policy.py`` VRL-Temp) reports
  ``supports_fused_timeline() == False``, the evaluator prices it with
  the round walk, and the fused timeline and the rank refuse it;
* **fail loud** — a failure inside the fused kernels raises out of the
  evaluator and the rank simulator; no other path replays the input.
"""

import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller import KIND_FULL, build_policy
from repro.retention import RefreshBinning, RetentionProfiler
from repro.sim import (
    BankSimulator,
    DRAMTiming,
    FusedTimeline,
    MemoryTrace,
    RankSimulator,
    RefreshOverheadEvaluator,
    round_walk,
    service_starts,
    union_length,
)
from repro.sim import rank as rank_module
from repro.sim import timeline as timeline_module
from repro.sim._timeline_kernels import crossing_kinds, segmented_fulls
from repro.sim.schedule import deadline_counts
from repro.sim.timeline import access_resets
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.units import MS
from tests.test_rank import _union_length

TIMING = DRAMTiming.from_technology(DEFAULT_TECH)


def _policy(name, geometry, profile_seed=5, nbits=2):
    profile = RetentionProfiler(seed=profile_seed).profile(geometry)
    binning = RefreshBinning().assign(profile)
    return build_policy(name, DEFAULT_TECH, profile, binning, nbits=nbits)


def _random_segments(rng, n_rows):
    """Randomized (counts, phase, cycle_len, reset_rows, reset_ordinals)."""
    counts = rng.integers(0, 40, size=n_rows)
    cycle_len = rng.integers(1, 9, size=n_rows)
    phase = rng.integers(0, cycle_len)
    reset_rows, reset_ordinals = [], []
    for row in range(n_rows):
        if counts[row] == 0 or rng.random() < 0.3:
            continue
        n_resets = int(rng.integers(1, 6))
        ordinals = np.unique(rng.integers(0, counts[row], size=n_resets))
        reset_rows.extend([row] * len(ordinals))
        reset_ordinals.extend(ordinals.tolist())
    return (
        counts.astype(np.int64),
        phase.astype(np.int64),
        cycle_len.astype(np.int64),
        np.asarray(reset_rows, dtype=np.int64),
        np.asarray(reset_ordinals, dtype=np.int64),
    )


def _segmented_fulls_loop(counts, phase, cycle_len, reset_rows, reset_ordinals,
                          fulls, final_phase):
    """Per-row loop form of the segment arithmetic (the oracle).

    ``fulls`` / ``final_phase`` arrive prefilled with the reset-free
    closed form; rows that appear in ``reset_rows`` (sorted by row,
    then ordinal) are recomputed segment by segment.  A reset at
    ordinal ``k`` restarts the cadence *before* the ``k``-th crossing's
    decision, exactly like the round walk's access-then-decide order.
    """
    i = 0
    n = reset_rows.shape[0]
    while i < n:
        row = reset_rows[i]
        m1 = cycle_len[row]
        start = phase[row]
        prev = 0
        full_count = 0
        while i < n and reset_rows[i] == row:
            ordinal = reset_ordinals[i]
            full_count += (ordinal - prev + start) // m1
            start = 0
            prev = ordinal
            i += 1
        tail = counts[row] - prev
        full_count += tail // m1
        fulls[row] = full_count
        final_phase[row] = tail % m1
    return fulls, final_phase


def _bruteforce_fulls(counts, phase, cycle_len, reset_rows, reset_ordinals):
    """Walk Algorithm 1's counter crossing by crossing (the oracle)."""
    n = len(counts)
    fulls = np.zeros(n, dtype=np.int64)
    final_phase = np.empty(n, dtype=np.int64)
    resets = {
        (int(r), int(o)) for r, o in zip(reset_rows, reset_ordinals)
    }
    for row in range(n):
        rcount = int(phase[row])
        mprsf = int(cycle_len[row]) - 1
        for ordinal in range(int(counts[row])):
            if (row, ordinal) in resets:
                rcount = 0
            if rcount == mprsf:
                fulls[row] += 1
                rcount = 0
            else:
                rcount += 1
        final_phase[row] = rcount
    return fulls, final_phase


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_segmented_fulls_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        counts, phase, cycle_len, rrows, rords = _random_segments(rng, 32)
        want = _bruteforce_fulls(counts, phase, cycle_len, rrows, rords)
        got = segmented_fulls(counts, phase, cycle_len, rrows, rords)
        assert np.array_equal(got[0], want[0]), f"fulls differ, seed={seed}"
        assert np.array_equal(got[1], want[1]), f"phase differs, seed={seed}"

    @pytest.mark.parametrize("seed", range(10))
    def test_loop_kernel_matches_numpy_kernel(self, seed):
        """The per-row loop form ≡ the vectorized scatter form."""
        rng = np.random.default_rng(100 + seed)
        counts, phase, cycle_len, rrows, rords = _random_segments(rng, 24)
        numpy_fulls, numpy_phase = segmented_fulls(
            counts, phase, cycle_len, rrows, rords
        )
        loop_fulls = (counts + phase) // cycle_len
        loop_phase = (counts + phase) % cycle_len
        _segmented_fulls_loop(
            counts, phase, cycle_len, rrows, rords, loop_fulls, loop_phase
        )
        assert np.array_equal(loop_fulls, numpy_fulls), f"seed={seed}"
        assert np.array_equal(loop_phase, numpy_phase), f"seed={seed}"

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), trailing=st.booleans())
    def test_crossing_kinds_with_resets_sum_to_segmented_fulls(self, seed, trailing):
        """Per row, reset-aware kinds count ``segmented_fulls``' fulls and
        end at its final phase — the crossings since the later of the
        last full (exclusive) and the last reset, in any batch order."""
        rng = np.random.default_rng(seed)
        n_rows = 24
        counts, phase, cycle_len, rrows, rords = _random_segments(rng, n_rows)
        if trailing:
            # A reset after a row's last crossing only zeroes its phase.
            extra = np.flatnonzero(rng.random(n_rows) < 0.3)
            pairs = set(zip(rrows.tolist(), rords.tolist()))
            pairs = sorted(pairs | {(int(r), int(counts[r])) for r in extra})
            rrows = np.array([r for r, _ in pairs], dtype=np.int64)
            rords = np.array([o for _, o in pairs], dtype=np.int64)
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
        ordinals = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        order = rng.permutation(len(rows))
        rows, ordinals = rows[order], ordinals[order]

        kinds = crossing_kinds(rows, ordinals, phase, cycle_len, rrows, rords)
        fulls, final_phase = segmented_fulls(counts, phase, cycle_len, rrows, rords)

        is_full = kinds == KIND_FULL
        assert np.array_equal(np.bincount(rows[is_full], minlength=n_rows), fulls)
        for row in range(n_rows):
            anchor, start = 0, int(phase[row])
            row_resets = rords[rrows == row]
            if len(row_resets):
                anchor, start = int(row_resets.max()), 0
            row_fulls = ordinals[(rows == row) & is_full]
            if len(row_fulls) and row_fulls.max() >= anchor:
                anchor, start = int(row_fulls.max()) + 1, 0
            assert final_phase[row] == start + counts[row] - anchor, f"row {row}"

    def test_crossing_kinds_matches_cadence(self):
        """Crossing ``k`` is full exactly when the counter saturates."""
        cycle_len = np.array([3], dtype=np.int64)
        phase = np.array([1], dtype=np.int64)
        rows = np.zeros(6, dtype=np.int64)
        ordinals = np.arange(6, dtype=np.int64)
        kinds = crossing_kinds(rows, ordinals, phase, cycle_len)
        # phase 1, mprsf 2: partial, full, partial, partial, full, ...
        assert (kinds == KIND_FULL).tolist() == [
            False, True, False, False, True, False,
        ]


class TestTimelineReport:
    def test_report_telemetry(self):
        geometry = BankGeometry(32, 8)
        policy = _policy("vrl", geometry)
        timeline = FusedTimeline(policy, TIMING)
        stats = timeline.evaluate(TIMING.cycles(700 * MS))
        report = timeline.last_report
        assert report.crossings == stats.full_refreshes + stats.partial_refreshes
        assert report.resets == 0


class TestBusyChainClosedForms:
    @pytest.mark.parametrize("seed", range(8))
    def test_service_starts_matches_recurrence(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        dues = np.sort(rng.integers(0, 10_000, size=n)).astype(np.int64)
        busy = rng.integers(1, 50, size=n).astype(np.int64)
        starts = service_starts(dues, busy)
        finish = 0
        for i in range(n):
            expected = max(int(dues[i]), finish)
            assert starts[i] == expected, f"i={i} seed={seed}"
            finish = expected + int(busy[i])

    @pytest.mark.parametrize("seed", range(8))
    def test_union_length_matches_rank_bookkeeping(self, seed):
        rng = np.random.default_rng(50 + seed)
        n = int(rng.integers(1, 150))
        starts = rng.integers(0, 5_000, size=n).astype(np.int64)
        ends = starts + rng.integers(1, 200, size=n)
        horizon = int(rng.integers(1, 6_000))
        want = _union_length(
            sorted((int(s), int(e)) for s, e in zip(starts, ends)), horizon
        )
        assert union_length(starts, ends, horizon) == want, f"seed={seed}"

    def test_empty_inputs(self):
        assert len(service_starts(np.empty(0, dtype=np.int64),
                                  np.empty(0, dtype=np.int64))) == 0
        assert union_length(np.empty(0, dtype=np.int64),
                            np.empty(0, dtype=np.int64), 100) == 0


def _sort_unique_resets(rows, cycles, first, periods_cycles, counts=None):
    """The sort-unique ``access_resets`` the bitmap replaced (the oracle)."""
    rows = np.asarray(rows, dtype=np.int64)
    cycles = np.asarray(cycles, dtype=np.int64)
    in_bank = (rows >= 0) & (rows < len(first))
    if not in_bank.all():
        rows, cycles = rows[in_bank], cycles[in_bank]
    del in_bank
    # (c - first) // period + 1, which is <= 0 exactly when c < first.
    ordinals = cycles - first[rows]
    ordinals //= periods_cycles[rows]
    ordinals += 1
    np.maximum(ordinals, 0, out=ordinals)
    if counts is not None:
        live = ordinals < counts[rows]
        rows, ordinals = rows[live], ordinals[live]
    if len(rows) == 0:
        return rows, ordinals
    # One sorted-unique pass over (row, ordinal) packed into one key.
    span = int(ordinals.max()) + 1
    keys = rows * span
    keys += ordinals
    del ordinals
    keys.sort()
    fresh = np.empty(len(keys), dtype=bool)
    fresh[0] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    keys = keys[fresh]
    return keys // span, keys % span


def _assert_same_resets(got, want):
    for got_array, want_array in zip(got, want):
        assert got_array.dtype == np.int64
        np.testing.assert_array_equal(got_array, want_array)


class TestAccessResets:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 48),
        n_accesses=st.integers(0, 400),
        max_period=st.sampled_from([1, 3, 40, 1_000]),
        with_counts=st.booleans(),
        floor=st.sampled_from([None, 1, 37, 256]),
    )
    def test_bitmap_matches_sort_unique(
        self, seed, n_rows, n_accesses, max_period, with_counts, floor
    ):
        """Out-of-bank rows, the ``counts`` filter, accesses past a row's
        last crossing (kept when ``counts`` is ``None``), empty input, and
        with a small bitmap floor the blocked path over many windows."""
        rng = np.random.default_rng(seed)
        periods = rng.integers(1, max_period + 1, size=n_rows).astype(np.int64)
        first = rng.integers(0, periods + 1).astype(np.int64)
        duration = int(rng.integers(1, 60)) * max_period
        counts = deadline_counts(first, periods, duration) if with_counts else None
        rows = rng.integers(-3, n_rows + 3, size=n_accesses).astype(np.int64)
        cycles = np.sort(rng.integers(0, duration + 3 * max_period, size=n_accesses))
        want = _sort_unique_resets(rows, cycles, first, periods, counts)
        if floor is None:
            got = access_resets([(cycles, rows)], first, periods, counts)
        else:
            with mock.patch.object(timeline_module, "_RESET_BITMAP_FLOOR", floor):
                got = access_resets([(cycles, rows)], first, periods, counts)
        _assert_same_resets(got, want)

    @pytest.mark.parametrize("with_counts", [False, True])
    def test_wide_span_takes_blocked_path(self, with_counts):
        """A span whose whole-bank bitmap passes the memory bound is read
        in windows, with the same result."""
        n_rows = 16
        first = np.zeros(n_rows, dtype=np.int64)
        periods = np.ones(n_rows, dtype=np.int64)
        rows = np.array([0, 0, 5, 5, 5, 9, 15, 15, 3], dtype=np.int64)
        cycles = np.array(
            [0, 3_000_000, 7, 7, 2_999_999, 11, 4_000_000, 1_500_000, 20],
            dtype=np.int64,
        )
        span = int(cycles.max()) + 2
        assert n_rows * span > timeline_module._RESET_BITMAP_FLOOR
        counts = deadline_counts(first, periods, 3_500_000) if with_counts else None
        _assert_same_resets(
            access_resets([(cycles, rows)], first, periods, counts),
            _sort_unique_resets(rows, cycles, first, periods, counts),
        )

    def test_empty_and_out_of_bank_inputs(self):
        first = np.array([5, 9], dtype=np.int64)
        periods = np.array([10, 10], dtype=np.int64)
        for rows in ([], [-1, 2, 7]):
            rows = np.array(rows, dtype=np.int64)
            cycles = np.arange(len(rows), dtype=np.int64)
            got = access_resets([(cycles, rows)], first, periods)
            assert [len(a) for a in got] == [0, 0]
            assert all(a.dtype == np.int64 for a in got)


class TestEvaluatorBackends:
    @pytest.mark.parametrize(
        "build",
        [
            lambda p: RefreshOverheadEvaluator(p, TIMING, backend="fused"),
            lambda p: RefreshOverheadEvaluator(p, TIMING, backend="loop"),
            lambda p: RefreshOverheadEvaluator(p, TIMING, backend="numba"),
            lambda p: RefreshOverheadEvaluator(p, TIMING, shadow_verify=1),
            lambda p: FusedTimeline(p, TIMING, backend="numpy"),
            lambda p: FusedTimeline(p, TIMING, epoch_cycles=1_000),
        ],
        ids=[
            "evaluator-fused", "evaluator-loop", "evaluator-numba",
            "shadow_verify", "timeline-backend", "epoch_cycles",
        ],
    )
    def test_removed_options_are_rejected(self, build):
        """One pricing path per input: no backend, kernel or verification knobs."""
        with pytest.raises(TypeError, match="unexpected keyword"):
            build(_policy("vrl", BankGeometry(32, 8)))

    @pytest.mark.parametrize("name", ["fixed", "raidr", "vrl", "vrl-access"])
    def test_backend_follows_the_policy(self, name):
        evaluator = RefreshOverheadEvaluator(_policy(name, BankGeometry(32, 8)), TIMING)
        assert evaluator.backend == "fused"
        assert isinstance(evaluator.timeline, FusedTimeline)

    def test_backend_is_read_only(self):
        evaluator = RefreshOverheadEvaluator(_policy("vrl", BankGeometry(32, 8)), TIMING)
        with pytest.raises(AttributeError):
            evaluator.backend = "loop"

    @pytest.mark.parametrize("with_trace", [False, True])
    @pytest.mark.parametrize("name", ["fixed", "raidr", "vrl", "vrl-access"])
    def test_fused_matches_round_walk(self, name, with_trace):
        """The evaluator's fused path ≡ :func:`round_walk`, the oracle."""
        geometry = BankGeometry(32, 8)
        duration = TIMING.cycles(300 * MS)
        rng = np.random.default_rng(6)
        trace = MemoryTrace(
            np.sort(rng.integers(0, duration, 60)).astype(np.int64),
            rng.integers(0, geometry.rows, 60).astype(np.int64),
            rng.random(60) < 0.5,
            name="priced",
        ) if with_trace else None
        got = RefreshOverheadEvaluator(_policy(name, geometry), TIMING).evaluate(
            duration, trace
        )
        want = round_walk(_policy(name, geometry), TIMING, duration, trace)
        assert got.full_refreshes == want.full_refreshes
        assert got.partial_refreshes == want.partial_refreshes
        assert got.refresh_cycles == want.refresh_cycles

    def test_refresh_stats_matches_run(self):
        """The evaluator's fused path ≡ ``BankSimulator.run().refresh``."""
        geometry = BankGeometry(48, 8)
        duration = TIMING.cycles(700 * MS)
        policy = _policy("vrl", geometry)
        fused = RefreshOverheadEvaluator(policy, TIMING).evaluate(duration)
        engine = BankSimulator(policy, TIMING).run(duration_cycles=duration).refresh
        assert fused.full_refreshes == engine.full_refreshes
        assert fused.partial_refreshes == engine.partial_refreshes
        assert fused.refresh_cycles == engine.refresh_cycles


def _broken_kernel(*args, **kwargs):
    raise RuntimeError("fused kernel exploded")


class TestFailLoud:
    """A fused-kernel failure raises; no other path replays the input."""

    @pytest.mark.parametrize("kernel", ["segmented_fulls", "access_resets"])
    def test_evaluator_raises_fused_kernel_failure(self, monkeypatch, kernel):
        monkeypatch.setattr(timeline_module, kernel, _broken_kernel)
        geometry = BankGeometry(32, 8)
        duration = TIMING.cycles(100 * MS)
        rng = np.random.default_rng(4)
        trace = MemoryTrace(
            np.sort(rng.integers(0, duration, 50)).astype(np.int64),
            rng.integers(0, geometry.rows, 50).astype(np.int64),
            rng.random(50) < 0.5,
            name="fail-loud",
        )
        evaluator = RefreshOverheadEvaluator(_policy("vrl-access", geometry), TIMING)
        with pytest.raises(RuntimeError, match="fused kernel exploded"):
            evaluator.evaluate(duration, trace)

    @pytest.mark.parametrize(
        "all_bank,kernel",
        [
            (False, "crossing_kinds"),
            (False, "service_starts"),
            (False, "union_length"),
            (True, "service_starts"),
            (True, "union_length"),
        ],
    )
    def test_rank_raises_fused_kernel_failure(self, monkeypatch, all_bank, kernel):
        monkeypatch.setattr(rank_module, kernel, _broken_kernel)
        geometry = BankGeometry(32, 8)
        policies = [_policy("vrl", geometry, profile_seed=s) for s in (1, 2)]
        simulator = RankSimulator(
            policies, TIMING, geometry, all_bank_refresh=all_bank
        )
        with pytest.raises(RuntimeError, match="fused kernel exploded"):
            simulator.run(duration_cycles=TIMING.cycles(100 * MS))

    @pytest.mark.parametrize("owner", ["timeline", "evaluator", "round-walk", "rank"])
    def test_input_validation_raises_before_pricing(self, owner):
        geometry = BankGeometry(32, 8)
        policy = _policy("vrl", geometry)
        if owner == "timeline":
            price = FusedTimeline(policy, TIMING).evaluate
        elif owner == "evaluator":
            price = RefreshOverheadEvaluator(policy, TIMING).evaluate
        elif owner == "round-walk":
            def price(duration):
                return round_walk(policy, TIMING, duration)
        else:
            simulator = RankSimulator([policy], TIMING, geometry)

            def price(duration):
                return simulator.run(duration_cycles=duration)
        with pytest.raises(ValueError, match="duration must be positive"):
            price(0)


def _load_custom_policy_module():
    path = Path(__file__).resolve().parents[1] / "examples" / "custom_policy.py"
    spec = importlib.util.spec_from_file_location("custom_policy_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScalarFallback:
    """A scalar-only subclass rides the round walk, results unchanged."""

    def _custom_policy(self, geometry):
        module = _load_custom_policy_module()
        base = _policy("vrl-access", geometry)
        # Hot every third stretch so the thermal override actually fires.
        return module.VRLTempPolicy(
            base.binning,
            base.mprsf.values,
            tau_full=base.tau_full,
            tau_partial=base.tau_partial,
            nbits=base.nbits,
            hot_windows=lambda index: (index // 100) % 3 == 2,
        )

    def test_scalar_override_is_detected(self):
        policy = self._custom_policy(BankGeometry(32, 8))
        assert not policy.supports_fused_timeline()

    def test_fused_timeline_refuses_it(self):
        policy = self._custom_policy(BankGeometry(32, 8))
        with pytest.raises(ValueError, match="timeline_spec") as raised:
            FusedTimeline(policy, TIMING)
        assert "round_walk" in str(raised.value)
        assert "backend" not in str(raised.value)

    def test_rank_refuses_it(self):
        geometry = BankGeometry(32, 8)
        with pytest.raises(ValueError, match="RankSimulator: bank 0 policy 'vrl-temp'"):
            RankSimulator([self._custom_policy(geometry)], TIMING, geometry)

    def test_evaluator_takes_the_round_walk(self):
        policy = self._custom_policy(BankGeometry(32, 8))
        evaluator = RefreshOverheadEvaluator(policy, TIMING)
        assert evaluator.backend == "loop"
        assert evaluator.timeline is None
        assert evaluator.reads_trace

    def test_round_walk_matches_engine(self):
        """evaluator ≡ ``round_walk`` ≡ engine for the scalar-only policy."""
        geometry = BankGeometry(32, 8)
        duration = TIMING.cycles(800 * MS)
        rng = np.random.default_rng(3)
        trace = MemoryTrace(
            np.sort(rng.integers(0, duration, 400)).astype(np.int64),
            rng.integers(0, geometry.rows, 400).astype(np.int64),
            rng.random(400) < 0.5,
            name="fallback",
        )
        results = {}
        for label in ("evaluator", "round-walk", "engine"):
            policy = self._custom_policy(geometry)
            if label == "engine":
                stats = BankSimulator(policy, TIMING).run(
                    trace=trace, duration_cycles=duration
                ).refresh
            elif label == "round-walk":
                stats = round_walk(policy, TIMING, duration, trace)
            else:
                stats = RefreshOverheadEvaluator(policy, TIMING).evaluate(duration, trace)
            results[label] = (
                stats.full_refreshes, stats.partial_refreshes,
                stats.refresh_cycles,
            )
        assert results["evaluator"] == results["round-walk"] == results["engine"]

    def test_builtin_policies_stay_fused(self):
        geometry = BankGeometry(32, 8)
        for name in ("fixed", "raidr", "vrl", "vrl-access"):
            assert _policy(name, geometry).supports_fused_timeline(), name
