"""The per-request passes of a Fig. 4 sweep, block by block and in bounded memory.

* **generator oracle** — :meth:`TraceGenerator.generate` fills its
  arrays block by block and returns the bytes the one-shot generator
  (``tests/reference_trace.py``) returns, with the same RNG end state:
  every workload, three seeds, lengths around the block size, and small
  blocks over tiny working sets;
* **reset oracle** — the blocked :func:`access_resets` returns what the
  whole-trace version returns: out-of-bank rows, empty and unsorted
  input, ``counts`` given or not, the windowed bitmap, and the calls
  the cycle-level engine makes;
* **memory bounds** (``tracemalloc``, so host-independent) — a
  generated trace costs its own bytes plus block-sized slack,
  :func:`access_resets` its bitmap and outputs plus that slack, and the
  runner's trace memo never holds two traces.
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
from repro.sim import BankSimulator, DRAMTiming, MemoryTrace
from repro.sim import engine as engine_module
from repro.sim import timeline as timeline_module
from repro.sim.schedule import deadline_counts
from repro.sim.timeline import access_resets
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.units import MS
from repro.workloads import PARSEC_WORKLOADS, TraceGenerator, WorkloadSpec
from repro.workloads import generator as generator_module
from tests.reference_trace import reference_access_resets, reference_generate
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
            got = access_resets(rows, cycles, first, periods, counts)
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
            access_resets(rows, cycles, first, periods, counts),
            reference_access_resets(rows, cycles, first, periods, counts),
        )

    @pytest.mark.parametrize("rows", [[], [-1, 2, 7], [-5]])
    def test_empty_and_out_of_bank(self, rows):
        first = np.array([5, 9], dtype=np.int64)
        periods = np.array([10, 10], dtype=np.int64)
        rows = np.array(rows, dtype=np.int64)
        cycles = np.arange(len(rows), dtype=np.int64)
        for counts in (None, np.array([3, 3], dtype=np.int64)):
            got = access_resets(rows, cycles, first, periods, counts)
            _assert_same_resets(got, reference_access_resets(rows, cycles, first, periods, counts))
            assert [len(a) for a in got] == [0, 0]

    @pytest.mark.parametrize("policy_name", ["vrl-access", "raidr"])
    def test_engine_calls(self, monkeypatch, policy_name):
        """Every call the cycle-level engine makes returns the oracle's
        resets (the engine leaves ``counts`` as ``None``)."""
        calls = []

        def recording(rows, cycles, first, periods, counts=None):
            got = access_resets(rows, cycles, first, periods, counts)
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
            access_resets, rows, cycles, first, periods, counts
        )
        if with_counts:
            span = int(counts.max()) + 1
        else:
            span = int(((cycles.max() - first) // periods).max()) + 2
        outputs = reset_rows.nbytes + reset_ordinals.nbytes
        marked = 8 * len(reference_access_resets(rows, cycles, first, periods)[0])
        assert peak <= SLACK + n_rows * span + 2 * marked + outputs
        assert SLACK + n_rows * span + 2 * marked + outputs < rows.nbytes


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
