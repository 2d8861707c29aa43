"""The per-request passes of a Fig. 4 sweep, block by block and in bounded memory.

* **generator oracle** — :meth:`TraceGenerator.generate` fills its
  arrays block by block and returns the bytes the one-shot generator
  (``tests/reference_trace.py``) returns, with the same RNG end state:
  every workload, three seeds, lengths around the block size, small
  blocks over tiny working sets, and a permutation that leaves half of
  a 64-bit draw buffered across the skipped Zipf uniforms;
* **stream oracle** — :meth:`TraceGenerator.stream`'s decoded
  ``(cycles, rows)`` blocks, copied on every pass, are the oracle's
  cycles and rows, and the resets and refresh statistics priced from
  them are the whole trace's;
* **gap codec** — every gap dtype from ``uint8`` to ``uint64`` round
  trips, slow workloads whose gaps need ``uint32`` and ``uint64``, a
  one-request trace, blocks around the block size, and the reused
  decode buffers;
* **reset oracle** — the blocked :func:`access_resets` returns what the
  whole-trace version returns: out-of-bank rows, empty and unsorted
  input, ``counts`` given or not, the windowed bitmap, and the calls
  the cycle-level engine makes;
* **memory bounds** (``tracemalloc``, so host-independent) — a
  generated trace costs its own bytes plus block-sized slack,
  :func:`access_resets` its bitmap and outputs plus that slack, a
  streamed trace under three bytes a request, a streamed VRL-Access
  evaluation no more than an int64 cycle array plus that slack, and
  the runner's trace memo never holds two traces.
"""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller import build_policy
from repro.retention import RefreshBinning, RetentionProfiler
from repro.runner import cells
from repro.sim import BankSimulator, DRAMTiming, MemoryTrace, RefreshOverheadEvaluator
from repro.sim import engine as engine_module
from repro.sim import timeline as timeline_module
from repro.sim.schedule import deadline_counts
from repro.sim.timeline import access_resets
from repro.sim.trace import StreamedTrace, decoded_cycles, narrow_gaps
from repro.technology import BankGeometry, DEFAULT_GEOMETRY, DEFAULT_TECH
from repro.units import MS
from repro.workloads import PARSEC_WORKLOADS, TraceGenerator, WorkloadSpec
from repro.workloads import generator as generator_module
from tests.reference_trace import reference_access_resets, reference_generate
from tests.test_differential_engine_fastpath import _policy_state
from tests.test_timeline_fused import _assert_same_resets

TIMING = DRAMTiming.from_technology(DEFAULT_TECH)
BLOCK = generator_module._SAMPLE_BLOCK
#: Bytes a pass may allocate beyond its outputs: block-sized buffers.
SLACK = 1 << 20


def _duration_for(spec, n_requests):
    """A duration for which ``spec`` generates exactly ``n_requests``."""
    duration = (n_requests + 0.5) / spec.requests_per_second
    assert max(1, int(spec.requests_per_second * duration)) == n_requests
    return duration


def _assert_generates_like_oracle(spec, seed, duration, geometry=None):
    args = (spec, TIMING) if geometry is None else (spec, TIMING, geometry)
    got_generator = TraceGenerator(*args, seed=seed)
    want_generator = TraceGenerator(*args, seed=seed)
    got = got_generator.generate(duration)
    want = reference_generate(want_generator, duration)
    for name in ("cycles", "rows", "is_write"):
        got_array, want_array = getattr(got, name), getattr(want, name)
        assert got_array.dtype == want_array.dtype, name
        assert got_array.tobytes() == want_array.tobytes(), name
    assert got.name == want.name
    assert got_generator.rng.bit_generator.state == want_generator.rng.bit_generator.state


class TestGeneratorMatchesOracle:
    @pytest.mark.parametrize("seed", [2018, 7, 1])
    @pytest.mark.parametrize("name", list(PARSEC_WORKLOADS))
    def test_lengths_around_the_block(self, name, seed):
        """One request, part of a block, whole blocks, and one past them."""
        spec = PARSEC_WORKLOADS[name]
        for n_requests in (1, BLOCK // 2 + 3, 2 * BLOCK, 2 * BLOCK + 1):
            _assert_generates_like_oracle(spec, seed, _duration_for(spec, n_requests))

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize(
        "footprint,streaming", [(1, 0.5), (5, 1.0), (37, 0.3), (600, 0.0)]
    )
    def test_small_blocks_and_working_sets(self, monkeypatch, block, footprint, streaming):
        """Blocks far shorter than a lap of the scan, and scans that wrap
        many times inside one block."""
        monkeypatch.setattr(generator_module, "_SAMPLE_BLOCK", block)
        spec = WorkloadSpec("edge", footprint, 0.8, 1e5, 0.3, streaming, "test")
        for seed in (3, 4):
            _assert_generates_like_oracle(spec, seed, 0.005, BankGeometry(1024, 8))

    def test_full_length_trace(self):
        """A six-second ``bgsave`` trace, as ``refresh-sweep`` builds it."""
        _assert_generates_like_oracle(PARSEC_WORKLOADS["bgsave"], 2018, 6.0)

    def test_permutation_leaves_a_buffered_half_draw(self):
        """``permutation`` draws 32-bit halves and here leaves one
        buffered.  ``advance`` past the Zipf uniforms clears that buffer;
        the scan start's ``integers`` reads it, so the generator must put
        it back."""
        spec, seed, duration = PARSEC_WORKLOADS["facesim"], 7, 0.01
        replay = TraceGenerator(spec, TIMING, seed=seed)
        n_requests = max(1, int(spec.requests_per_second * duration))
        replay.rng.standard_exponential(n_requests)
        replay.rng.random(n_requests)
        replay.rng.permutation(replay.footprint)
        assert replay.rng.bit_generator.state["has_uint32"] == 1
        _assert_generates_like_oracle(spec, seed, duration)


def _copied_pairs(streamed):
    """One pass over ``streamed``, each decoded block copied before the
    next pass overwrites its buffers."""
    return [(cycles.copy(), rows.copy()) for cycles, rows in streamed]


def _assert_streams_like_oracle(spec, seed, duration, geometry=None):
    """On two passes, the decoded cycle and row blocks equal the oracle's arrays."""
    args = (spec, TIMING) if geometry is None else (spec, TIMING, geometry)
    streamed = TraceGenerator(*args, seed=seed).stream(duration)
    want = reference_generate(TraceGenerator(*args, seed=seed), duration)
    assert len(streamed) == len(want) and streamed.name == want.name
    assert streamed.last_cycle == int(want.cycles[-1])
    for _ in range(2):
        pairs = _copied_pairs(streamed)
        for cycles, rows in pairs:
            assert cycles.dtype == rows.dtype == np.int64
            assert len(cycles) == len(rows) <= generator_module._SAMPLE_BLOCK
        cycles, rows = (np.concatenate(arrays) for arrays in zip(*pairs))
        assert cycles.tobytes() == want.cycles.tobytes()
        assert rows.tobytes() == want.rows.tobytes()
    return streamed, want


class TestStreamMatchesOracle:
    @pytest.mark.parametrize("name", list(PARSEC_WORKLOADS))
    def test_lengths_around_the_block(self, name):
        spec = PARSEC_WORKLOADS[name]
        for n_requests in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
            _assert_streams_like_oracle(spec, 2018, _duration_for(spec, n_requests))

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize(
        "footprint,streaming", [(1, 0.5), (5, 1.0), (37, 0.3), (600, 0.0)]
    )
    def test_small_blocks_and_working_sets(self, monkeypatch, block, footprint, streaming):
        monkeypatch.setattr(generator_module, "_SAMPLE_BLOCK", block)
        spec = WorkloadSpec("edge", footprint, 0.8, 1e5, 0.3, streaming, "test")
        for seed in (3, 4):
            _assert_streams_like_oracle(spec, seed, 0.005, BankGeometry(1024, 8))

    def test_stream_draws_no_write_flags(self):
        """The stream stops where :meth:`generate` draws ``is_write``."""
        spec, duration = PARSEC_WORKLOADS["dedup"], 0.02
        streaming = TraceGenerator(spec, TIMING, seed=5)
        streaming.stream(duration)
        generating = TraceGenerator(spec, TIMING, seed=5)
        n_requests = len(generating.generate(duration))
        streaming.rng.random(n_requests)
        assert streaming.rng.bit_generator.state == generating.rng.bit_generator.state

    @pytest.mark.parametrize("with_counts", [False, True])
    @pytest.mark.parametrize("windowed", [False, True])
    def test_resets_match_oracle(self, monkeypatch, with_counts, windowed):
        """Streamed blocks price the oracle's resets; with a tiny bitmap
        floor every window is one more pass over the blocks."""
        monkeypatch.setattr(generator_module, "_SAMPLE_BLOCK", 500)
        if windowed:
            monkeypatch.setattr(timeline_module, "_RESET_BITMAP_FLOOR", 64)
            monkeypatch.setattr(timeline_module, "_RESET_BITMAP_PER_ACCESS", 0)
        spec = PARSEC_WORKLOADS["canneal"]
        geometry = BankGeometry(8192, 8)
        streamed, want = _assert_streams_like_oracle(spec, 11, 0.01, geometry)
        rng = np.random.default_rng(6)
        first, periods = _random_bank(rng, geometry.rows, 4_000)
        duration = int(want.cycles[-1]) + 1
        counts = deadline_counts(first, periods, duration) if with_counts else None
        if windowed:
            span = int(((want.cycles.max() - first) // periods).max()) + 2
            assert geometry.rows * span > 20 * 64
        _assert_same_resets(
            access_resets(streamed, first, periods, counts),
            reference_access_resets(want.rows, want.cycles, first, periods, counts),
        )

    def test_round_walk_refuses_a_streamed_trace(self):
        """The round walk reads whole arrays: a streamed trace is a
        ``TypeError``, not an ``AttributeError`` deep in the walk."""
        geometry = BankGeometry(64, 8)
        profile = RetentionProfiler(seed=2).profile(geometry)
        policy = build_policy("raidr", DEFAULT_TECH, profile, RefreshBinning().assign(profile))
        policy.supports_fused_timeline = lambda: False
        evaluator = RefreshOverheadEvaluator(policy, TIMING)
        assert evaluator.backend == "loop"
        trace = TraceGenerator(PARSEC_WORKLOADS["vips"], TIMING, geometry).stream(0.01)
        with pytest.raises(TypeError, match="needs a MemoryTrace"):
            evaluator.evaluate(TIMING.cycles(0.01), trace)

    @pytest.mark.parametrize("name", ["vrl-access", "raidr"])
    def test_fused_pricing_matches_the_whole_trace(self, name):
        """Same statistics and policy end state from either trace form."""
        geometry = BankGeometry(1024, 16)
        profile = RetentionProfiler(seed=9).profile(geometry)
        binning = RefreshBinning().assign(profile)
        spec, seed, duration = PARSEC_WORKLOADS["x264"], 2018, 0.5
        results = []
        for build in ("stream", "generate"):
            trace = getattr(TraceGenerator(spec, TIMING, geometry, seed), build)(duration)
            policy = build_policy(name, DEFAULT_TECH, profile, binning)
            stats = RefreshOverheadEvaluator(policy, TIMING).evaluate(
                TIMING.cycles(duration), trace
            )
            results.append((vars(stats), _policy_state(policy)))
        assert results[0] == results[1]


class TestGapCodec:
    """A streamed trace's cycles, stored as per-block gaps in the
    narrowest unsigned dtype and decoded per pass."""

    @pytest.mark.parametrize(
        "largest,dtype",
        [(0, np.uint8), (255, np.uint8), (256, np.uint16), (65_535, np.uint16),
         (65_536, np.uint32), (2**32 - 1, np.uint32), (2**32, np.uint64),
         (2**62, np.uint64)],
    )
    def test_narrowest_dtype_round_trips(self, largest, dtype):
        cycles = np.array([7, 7 + largest, 7 + largest, 8 + largest], dtype=np.int64)
        gaps = narrow_gaps(cycles, 5, np.empty(8, dtype=np.int64))
        assert gaps.dtype == dtype
        assert gaps.tolist() == [2, largest, 0, 1]
        [decoded] = decoded_cycles((gaps,))
        assert decoded.tolist() == (cycles - 5).tolist()

    def test_decoding_carries_across_blocks(self):
        rng = np.random.default_rng(3)
        cycles = np.cumsum(rng.integers(0, 2**40, size=1_000) >> rng.integers(0, 40, size=1_000))
        scratch = np.empty(300, dtype=np.int64)
        bounds = [0, 1, 300, 301, 600, 900, 1_000]
        blocks = tuple(
            narrow_gaps(cycles[a:b], int(cycles[a - 1]) if a else 0, scratch)
            for a, b in zip(bounds, bounds[1:])
        )
        assert len({block.dtype for block in blocks}) > 1
        reused = [block.copy() for block in decoded_cycles(blocks)]
        assert np.concatenate(reused).tobytes() == cycles.tobytes()
        out = np.empty(len(cycles), dtype=np.int64)
        for _ in decoded_cycles(blocks, out=out):
            pass
        assert out.tobytes() == cycles.tobytes()

    @pytest.mark.parametrize(
        "rate,duration,dtype", [(100.0, 1.0, np.uint32), (0.1, 60.0, np.uint64)]
    )
    def test_slow_specs_need_wide_gaps(self, rate, duration, dtype):
        """Gaps past ``uint16`` (100 requests in a second) and past
        ``uint32`` (six requests in a minute) take the same path."""
        spec = WorkloadSpec("slow", 300, 0.8, rate, 0.3, 0.4, "test")
        streamed, want = _assert_streams_like_oracle(spec, 5, duration)
        assert len(want) == int(rate * duration)
        assert {block.dtype for block in streamed.gap_blocks} == {np.dtype(dtype)}
        _assert_generates_like_oracle(spec, 5, duration)

    def test_one_request_trace(self):
        spec = PARSEC_WORKLOADS["swaptions"]
        streamed, want = _assert_streams_like_oracle(spec, 2018, _duration_for(spec, 1))
        [gaps] = streamed.gap_blocks
        assert gaps.tolist() == want.cycles.tolist()
        assert streamed.last_cycle == int(want.cycles[0])

    @pytest.mark.parametrize("n_requests", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK])
    def test_blocks_around_the_block_size(self, n_requests):
        spec = PARSEC_WORKLOADS["dedup"]
        streamed, _ = _assert_streams_like_oracle(spec, 7, _duration_for(spec, n_requests))
        sizes = [len(gaps) for gaps in streamed.gap_blocks]
        assert sum(sizes) == n_requests and all(size == BLOCK for size in sizes[:-1])

    def test_decoded_blocks_share_one_buffer(self):
        """Each pass reuses one cycle and one row buffer: a kept block
        must be copied."""
        spec = PARSEC_WORKLOADS["vips"]
        streamed = TraceGenerator(spec, TIMING).stream(_duration_for(spec, 2 * BLOCK + 5))
        (cycles_a, rows_a), (cycles_b, rows_b), _ = list(streamed)
        assert np.shares_memory(cycles_a, cycles_b) and np.shares_memory(rows_a, rows_b)

    def test_mismatched_row_blocks_raise(self):
        gaps = (np.array([1, 2], dtype=np.uint8), np.array([3], dtype=np.uint8))
        for row_blocks in ([np.array([0, 1])], [np.array([0, 1]), np.array([2, 3])]):
            with pytest.raises(ValueError, match="do not match"):
                list(StreamedTrace(gaps, row_blocks))


def _random_bank(rng, n_rows, max_period):
    periods = rng.integers(1, max_period + 1, size=n_rows).astype(np.int64)
    first = rng.integers(0, periods + 1).astype(np.int64)
    return first, periods


class TestAccessResetsMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 48),
        n_accesses=st.integers(0, 3_000),
        max_period=st.sampled_from([1, 3, 40, 1_000]),
        with_counts=st.booleans(),
        ordered=st.booleans(),
        block=st.sampled_from([1, 7, 256, None]),
        floor=st.sampled_from([1, 37, None]),
    )
    def test_random_inputs(
        self, seed, n_rows, n_accesses, max_period, with_counts, ordered, block, floor
    ):
        """Out-of-bank rows, negative and past-horizon cycles, unsorted
        cycles, ``counts`` given or ``None``, many blocks, and with a
        small bitmap floor the windowed bitmap."""
        rng = np.random.default_rng(seed)
        first, periods = _random_bank(rng, n_rows, max_period)
        duration = int(rng.integers(1, 60)) * max_period
        counts = deadline_counts(first, periods, duration) if with_counts else None
        rows = rng.integers(-3, n_rows + 3, size=n_accesses).astype(np.int64)
        cycles = rng.integers(-max_period, duration + 3 * max_period, size=n_accesses)
        if ordered:
            cycles.sort()
        want = reference_access_resets(rows, cycles, first, periods, counts)
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(timeline_module, "_RESET_BLOCK", block)
            if floor is not None:
                patch.setattr(timeline_module, "_RESET_BITMAP_FLOOR", floor)
            got = access_resets([(cycles, rows)], first, periods, counts)
        _assert_same_resets(got, want)

    @pytest.mark.parametrize("with_counts", [False, True])
    def test_forced_windowed_bitmap(self, monkeypatch, with_counts):
        """A bank whose key range needs dozens of windows."""
        monkeypatch.setattr(timeline_module, "_RESET_BITMAP_FLOOR", 64)
        monkeypatch.setattr(timeline_module, "_RESET_BLOCK", 100)
        rng = np.random.default_rng(8)
        first, periods = _random_bank(rng, 300, 50)
        counts = deadline_counts(first, periods, 2_000) if with_counts else None
        rows = rng.integers(0, 300, size=2_000)
        cycles = np.sort(rng.integers(0, 2_000, size=2_000))
        assert 300 * int(((2_000 - first) // periods).max()) > 20 * 8 * len(rows)
        _assert_same_resets(
            access_resets([(cycles, rows)], first, periods, counts),
            reference_access_resets(rows, cycles, first, periods, counts),
        )

    @pytest.mark.parametrize("rows", [[], [-1, 2, 7], [-5]])
    def test_empty_and_out_of_bank(self, rows):
        first = np.array([5, 9], dtype=np.int64)
        periods = np.array([10, 10], dtype=np.int64)
        rows = np.array(rows, dtype=np.int64)
        cycles = np.arange(len(rows), dtype=np.int64)
        for counts in (None, np.array([3, 3], dtype=np.int64)):
            got = access_resets([(cycles, rows)], first, periods, counts)
            _assert_same_resets(got, reference_access_resets(rows, cycles, first, periods, counts))
            assert [len(a) for a in got] == [0, 0]

    @pytest.mark.parametrize(
        "blocks,message",
        [([([0, 1], [0, 1, 1])], "holds 3 rows for 2"), ([([0], [1]), ([1, 2], [0])], "holds 1 rows for 2")],
    )
    def test_row_blocks_must_match_the_cycles(self, blocks, message):
        first = np.array([5, 9], dtype=np.int64)
        periods = np.array([10, 10], dtype=np.int64)
        with pytest.raises(ValueError, match=message):
            access_resets([(np.array(c), np.array(r)) for c, r in blocks], first, periods)

    @pytest.mark.parametrize("policy_name", ["vrl-access", "raidr"])
    def test_engine_calls(self, monkeypatch, policy_name):
        """Every call the cycle-level engine makes returns the oracle's
        resets (the engine leaves ``counts`` as ``None``)."""
        calls = []

        def recording(blocks, first, periods, counts=None):
            got = access_resets(blocks, first, periods, counts)
            cycles, rows = (np.concatenate(arrays) for arrays in zip(*blocks))
            calls.append(
                (got, reference_access_resets(rows, cycles, first, periods, counts))
            )
            return got

        monkeypatch.setattr(engine_module, "access_resets", recording)
        monkeypatch.setattr(timeline_module, "_RESET_BLOCK", 97)
        geometry = BankGeometry(512, 16)
        profile = RetentionProfiler(seed=5).profile(geometry)
        policy = build_policy(
            policy_name, DEFAULT_TECH, profile, RefreshBinning().assign(profile)
        )
        duration = TIMING.cycles(300 * MS)
        rng = np.random.default_rng(2)
        trace = MemoryTrace(
            np.sort(rng.integers(0, duration, 5_000)).astype(np.int64),
            rng.integers(0, geometry.rows, 5_000).astype(np.int64),
            rng.random(5_000) < 0.3,
        )
        BankSimulator(policy, TIMING, geometry).run(trace, duration)
        if policy.timeline_spec().resets_on_access:
            assert calls
        for got, want in calls:
            _assert_same_resets(got, want)


def _traced_peak(function, *args):
    """``function(*args)`` and the bytes its allocations peaked at."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = function(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def _nbytes(trace):
    return trace.cycles.nbytes + trace.rows.nbytes + trace.is_write.nbytes


class TestMemoryBounds:
    def test_generate_peaks_at_its_trace(self, monkeypatch):
        """Two million requests: no request-length temporary, not even the
        one-byte streaming mask alongside ``is_write``."""
        monkeypatch.setattr(generator_module, "_SAMPLE_BLOCK", 1 << 12)
        spec = PARSEC_WORKLOADS["blackscholes"]
        generator = TraceGenerator(spec, TIMING, seed=2018)
        trace, peak = _traced_peak(
            generator.generate, _duration_for(spec, 2_000_000)
        )
        assert len(trace) == 2_000_000
        assert peak <= _nbytes(trace) + SLACK

    def test_generate_at_the_shipped_block(self):
        """At the shipped block size, slack stays a small fraction of a
        trace-length int64 array."""
        spec = PARSEC_WORKLOADS["bgsave"]
        generator = TraceGenerator(spec, TIMING, seed=7)
        trace, peak = _traced_peak(generator.generate, _duration_for(spec, 2_000_000))
        assert peak <= _nbytes(trace) + 4 * SLACK < _nbytes(trace) + trace.rows.nbytes

    @pytest.mark.parametrize("with_counts", [False, True])
    def test_access_resets_peaks_at_bitmap_and_outputs(self, with_counts):
        """Two million accesses over a bank whose resets are few: the
        peak is the bitmap and the outputs, not the accesses."""
        rng = np.random.default_rng(4)
        n_rows = 4096
        periods = rng.integers(1_000, 2_001, size=n_rows)
        first = rng.integers(0, periods + 1)
        duration = 40_000
        counts = deadline_counts(first, periods, duration) if with_counts else None
        rows = rng.integers(0, 64, size=2_000_000) * 61 % n_rows
        cycles = np.sort(rng.integers(0, duration, size=2_000_000))
        (reset_rows, reset_ordinals), peak = _traced_peak(
            access_resets, [(cycles, rows)], first, periods, counts
        )
        if with_counts:
            span = int(counts.max()) + 1
        else:
            span = int(((cycles.max() - first) // periods).max()) + 2
        outputs = reset_rows.nbytes + reset_ordinals.nbytes
        marked = 8 * len(reference_access_resets(rows, cycles, first, periods)[0])
        assert peak <= SLACK + n_rows * span + 2 * marked + outputs
        assert SLACK + n_rows * span + 2 * marked + outputs < rows.nbytes


    def test_streamed_trace_holds_under_three_bytes_a_request(self):
        """Two million ``bgsave`` requests: the uint16 gaps and the
        bit-packed streaming mask, plus working-set-sized tables."""
        spec = PARSEC_WORKLOADS["bgsave"]
        generator = TraceGenerator(spec, TIMING, seed=7)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = generator.stream(_duration_for(spec, 2_000_000))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == 2_000_000
        assert {gaps.dtype for gaps in trace.gap_blocks} == {np.dtype(np.uint16)}
        assert held <= 3 * len(trace)

    def test_streamed_vrl_access_peaks_below_a_trace(self):
        """Streaming and pricing two million ``bgsave`` requests under
        VRL-Access, as ``refresh-sweep`` does, peaks below the whole
        trace's ``cycles`` plus ``rows``: no trace-length row array."""
        spec = PARSEC_WORKLOADS["bgsave"]
        duration = _duration_for(spec, 2_000_000)
        profile = RetentionProfiler(seed=2018).profile(DEFAULT_GEOMETRY)
        policy = build_policy(
            "vrl-access", DEFAULT_TECH, profile, RefreshBinning().assign(profile)
        )
        evaluator = RefreshOverheadEvaluator(policy, TIMING)
        horizon = TIMING.cycles(duration)
        evaluator.evaluate(horizon)  # schedule compiled before the measurement

        def price():
            trace = TraceGenerator(spec, TIMING, seed=7).stream(duration)
            return vars(evaluator.evaluate(horizon, trace))

        streamed, peak = _traced_peak(price)
        whole = TraceGenerator(spec, TIMING, seed=7).generate(duration)
        assert peak < whole.cycles.nbytes + whole.rows.nbytes
        # The arrival sums are the peak, freed block by block as they
        # are narrowed: no int64 cycle array alongside them.
        assert peak <= whole.cycles.nbytes + SLACK
        assert streamed == vars(evaluator.evaluate(horizon, whole))


class TestTraceMemo:
    KEY = (tuple(sorted(cells.tech_params(DEFAULT_TECH).items())), 256, 16)

    def test_memo_drops_its_trace_before_building_the_next(self, monkeypatch):
        """The held trace is dead by the time the next one is generated,
        and a same-key call is a hit on the held object."""
        first = cells._trace(*self.KEY, "canneal", 11, 0.02)
        assert cells._trace(*self.KEY, "canneal", 11, 0.02) is first
        held = weakref.ref(first)
        del first
        alive_during_build = []
        generate = TraceGenerator.generate

        def watching(generator, duration_seconds):
            alive_during_build.append(held() is not None)
            return generate(generator, duration_seconds)

        monkeypatch.setattr(TraceGenerator, "generate", watching)
        before = cells._trace.cache_info()
        second = cells._trace(*self.KEY, "bgsave", 11, 0.02)
        after = cells._trace.cache_info()
        assert alive_during_build == [False]
        assert held() is None
        assert cells._trace(*self.KEY, "bgsave", 11, 0.02) is second
        assert after.misses == before.misses + 1
        assert cells._trace.cache_info().hits == after.hits + 1
        assert cells._trace.cache_info()._asdict() == {
            "hits": after.hits + 1, "misses": after.misses, "maxsize": 1, "currsize": 1,
        }

    def test_failed_build_leaves_the_slot_empty(self, monkeypatch):
        """A build that raises holds nothing, and the next call retries."""
        cells._trace(*self.KEY, "swaptions", 12, 0.02)

        def failing(generator, duration_seconds):
            raise RuntimeError("generation failed")

        with monkeypatch.context() as patch:
            patch.setattr(TraceGenerator, "generate", failing)
            with pytest.raises(RuntimeError, match="generation failed"):
                cells._trace(*self.KEY, "vips", 12, 0.02)
        assert cells._trace.cache_info().currsize == 0
        assert len(cells._trace(*self.KEY, "vips", 12, 0.02)) > 0
        assert cells._trace.cache_info().currsize == 1
