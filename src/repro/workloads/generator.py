"""Synthetic trace generation from a :class:`WorkloadSpec`.

The generator produces a Poisson arrival stream over a contiguous
working-set block of rows.  Each request is either:

* a **locality** access — row drawn from a Zipf-ranked popularity
  distribution over the working set (hot rows reused constantly), or
* a **streaming** access — the next row of a wrap-around sequential
  scanner (models tiling/scan phases).

Determinism: the RNG is seeded from the workload name and an explicit
seed, so the full Fig. 4 suite is reproducible bit-for-bit.  A trace
depends only on the generator's ``standard_exponential`` / ``random`` /
``permutation`` / ``integers`` stream, not on numpy's ``choice``
internals: Zipf ranks come from :class:`_GuideTable`, which returns
exactly what ``Generator.choice(len(p), n, p=p)`` returns from the same
``random(n)`` draw.

Draw order, as one full-length draw per array: arrival exponentials,
streaming-mask uniforms, the working-set permutation, the Zipf
uniforms of the ``n_local`` locality requests, the scan start, and the
write-flag uniforms.  The draws are made in blocks; a chunked
``standard_exponential`` or ``random`` fill is the same stream with the
same end state, so a block-filled trace is byte for byte the trace of
whole-array draws.  The Zipf uniforms come from a second cursor: a copy
of the PCG64 state after the permutation, which produces each block's
rows in one pass (and again on every pass of a streamed trace).  The
main generator skips the ``n_local`` uniforms with ``advance`` (one
64-bit step each) and restores the buffered 32-bit half-draw that
``advance`` clears, so the scan start and the write flags are the
whole-array draws' too.  This order is unchanged by how the draws are
stored.

Storage: one arrival pass serves :meth:`TraceGenerator.generate` and
:meth:`TraceGenerator.stream`.  The arrival sums are kept per
:data:`_SAMPLE_BLOCK`-request block, never as one trace-length array;
once the last sum fixes the scale, each block is scaled to cycles,
narrowed to gaps (:func:`~repro.sim.trace.narrow_gaps`) and freed.  The
streaming mask is bit-packed.  A streamed trace keeps the gaps and the
mask, about two bytes a request, and each pass decodes the cycles and
builds the rows into reused block buffers; ``generate`` decodes them
into its :class:`~repro.sim.trace.MemoryTrace`.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional

import numpy as np

from ..sim.timing import DRAMTiming
from ..sim.trace import MemoryTrace, StreamedTrace, decoded_cycles, narrow_gaps
from ..technology import BankGeometry, DEFAULT_GEOMETRY
from .benchmarks import WorkloadSpec


#: Guide-table buckets per category (rounded up to a power of two).
_BUCKETS_PER_CATEGORY = 8
#: Largest guide table; wider distributions fall back more often.
_MAX_BUCKETS = 1 << 20
#: Requests (and samples) filled per block: the block temporaries stay
#: cache-sized and the full-length arrays are only the outputs.
_SAMPLE_BLOCK = 1 << 14


def _seed_for(name: str, seed: int) -> int:
    """A stable per-workload RNG seed derived from the name."""
    digest = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class _GuideTable:
    """Power-of-two guide table over one distribution's CDF.

    Resolves a uniform ``u`` to ``#(cdf <= u)``, the index
    ``Generator.choice(len(p), size, p=p)`` returns for it by binary
    search with ``cdf = p.cumsum() / p.cumsum()[-1]``.  A uniform in
    bucket ``b = floor(u * K)`` (``K`` a power of two, so ``u * K`` and
    ``b / K`` are exact) has an index in
    ``[#(cdf <= b/K), #(cdf < (b+1)/K)]``.  Both bounds are counted
    exactly: ``cdf <= b/K`` iff ``ceil(cdf * K) <= b`` and
    ``cdf < (b+1)/K`` iff ``floor(cdf * K) <= b``, so a ``bincount`` of
    the scaled CDF and its cumulative sum give every bucket's bounds at
    once.  A bucket holding at most one CDF boundary settles with
    ``cdf[base] <= u``; samples in the few buckets holding more go to
    ``np.searchsorted``.
    """

    def __init__(self, probabilities: np.ndarray):
        cdf = probabilities.cumsum()
        cdf /= cdf[-1]
        n_buckets = min(
            _MAX_BUCKETS, 1 << (_BUCKETS_PER_CATEGORY * len(cdf) - 1).bit_length()
        )
        scaled = cdf * n_buckets
        at_or_below = np.bincount(np.ceil(scaled).astype(np.intp), minlength=n_buckets + 1)
        below_next = np.bincount(np.floor(scaled).astype(np.intp), minlength=n_buckets + 1)
        self.cdf = cdf
        self.n_buckets = n_buckets
        self.base = np.cumsum(at_or_below[:n_buckets], out=at_or_below[:n_buckets])
        below_next = np.cumsum(below_next[:n_buckets], out=below_next[:n_buckets])
        below_next -= self.base
        self.crowded = below_next > 1

    def resolve(self, uniforms: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the index of each uniform in one block into ``out``."""
        bucket = (uniforms * self.n_buckets).astype(np.intp)
        np.take(self.base, bucket, out=out)
        out += np.take(self.cdf, out) <= uniforms
        slow = np.flatnonzero(np.take(self.crowded, bucket))
        if len(slow):
            out[slow] = np.searchsorted(self.cdf, uniforms[slow], side="right")
        return out


def _below_blocks(rng: np.random.Generator, fraction: float, size: int):
    """``rng.random(size) < fraction`` as ``(start, block)`` pairs.

    Every block but the last holds a multiple of eight flags (so a
    block packs to whole bytes) and overwrites the one before it.
    """
    uniforms = np.empty(min(size, -(-_SAMPLE_BLOCK // 8) * 8))
    below = np.empty(len(uniforms), dtype=bool)
    for start in range(0, size, len(uniforms)):
        block = uniforms[:min(len(uniforms), size - start)]
        rng.random(out=block)
        yield start, np.less(block, fraction, out=below[:len(block)])


class TraceGenerator:
    """Generates deterministic synthetic traces for one workload.

    Args:
        spec: the workload's parameters.
        timing: controller timing (converts seconds to cycles).
        geometry: target bank geometry; the working set is clamped to
            the bank size.
        seed: base seed mixed with the workload name.
    """

    DEFAULT_SEED = 2018

    def __init__(
        self,
        spec: WorkloadSpec,
        timing: DRAMTiming,
        geometry: BankGeometry = DEFAULT_GEOMETRY,
        seed: int = DEFAULT_SEED,
    ):
        self.spec = spec
        self.timing = timing
        self.geometry = geometry
        self.rng = np.random.default_rng(_seed_for(spec.name, seed))
        self.footprint = min(spec.footprint_rows, geometry.rows)
        # Place the working set at a deterministic per-workload offset
        # so different benchmarks do not all hammer row 0.
        self.base_row = _seed_for(spec.name, seed ^ 0x5EED) % max(
            1, geometry.rows - self.footprint
        )

    def _zipf_probabilities(self) -> np.ndarray:
        """Normalized Zipf(alpha) popularity over the working set."""
        ranks = np.arange(1, self.footprint + 1, dtype=float)
        weights = ranks ** (-self.spec.zipf_alpha)
        return weights / weights.sum()

    def generate(self, duration_seconds: float) -> MemoryTrace:
        """Generate a trace covering ``duration_seconds`` of bank time.

        Decodes :meth:`stream`'s arrival gaps and rows into the trace's
        arrays, then draws the write flags :data:`_SAMPLE_BLOCK` at a
        time: besides ``cycles``, ``rows`` and ``is_write``, it holds
        only the narrowed gaps (freed once decoded) and the bit-packed
        streaming mask (freed before ``is_write`` is drawn).
        """
        gap_blocks, row_blocks = self._draw(duration_seconds)
        n_requests = sum(map(len, gap_blocks))
        cycles = np.empty(n_requests, dtype=np.int64)
        for _ in decoded_cycles(gap_blocks, out=cycles):
            pass
        del gap_blocks
        rows = np.empty(n_requests, dtype=np.int64)
        row_blocks.write(rows)
        del row_blocks
        is_write = np.empty(n_requests, dtype=bool)
        for start, block in _below_blocks(self.rng, self.spec.write_fraction, n_requests):
            is_write[start:start + len(block)] = block
        return MemoryTrace(
            cycles=cycles, rows=rows, is_write=is_write, name=self.spec.name
        )

    def stream(self, duration_seconds: float) -> StreamedTrace:
        """The (row, cycle) structure of :meth:`generate`'s trace, block by block.

        Holds the arrival gaps (narrowed per block) and the bit-packed
        streaming mask, about two bytes a request; each pass decodes
        the cycles and produces the rows :meth:`generate` returns, one
        block at a time, in reused buffers.  The write flags are never
        drawn, so the RNG ends where :meth:`generate`'s stands before
        its ``is_write`` draw.  Fused refresh pricing reads nothing
        else (see :func:`~repro.sim.timeline.access_resets`).
        """
        gap_blocks, row_blocks = self._draw(duration_seconds)
        return StreamedTrace(
            gap_blocks=gap_blocks, row_blocks=row_blocks, name=self.spec.name
        )

    def _draw(self, duration_seconds: float) -> tuple[tuple[np.ndarray, ...], "_RowBlocks"]:
        """Arrival gaps per block, and the rows as re-iterable blocks.

        Makes every main-stream draw up to (not including) the write
        flags.  The Zipf uniforms are left to the returned blocks, on a
        copy of the bit generator; the main stream skips past them.
        """
        if not math.isfinite(duration_seconds) or duration_seconds <= 0:
            raise ValueError(
                f"duration must be positive and finite, got {duration_seconds}"
            )
        spec = self.spec
        rng = self.rng
        n_requests = max(1, int(spec.requests_per_second * duration_seconds))
        blocks = range(0, n_requests, _SAMPLE_BLOCK)

        # Poisson arrivals, rescaled to exactly fill the duration.  The
        # running sums are kept per block; carrying the previous block's
        # total into each block's first element keeps every partial sum
        # the one a full-length cumsum gives.  Once the total is known,
        # each block is scaled to cycles, narrowed to gaps and freed.
        sums = []
        for start in blocks:
            block = rng.standard_exponential(min(_SAMPLE_BLOCK, n_requests - start))
            if start:
                block[0] += sums[-1][-1]
            sums.append(np.cumsum(block, out=block))
        scale = duration_seconds / sums[-1][-1]
        last_cycle = self.timing.cycles(duration_seconds) - 1
        scaled = np.empty(min(n_requests, _SAMPLE_BLOCK))
        window = np.empty(len(scaled), dtype=np.int64)
        scratch = np.empty(len(scaled), dtype=np.int64)
        gap_blocks = []
        previous = 0
        for index in range(len(sums)):
            block = scaled[:len(sums[index])]
            np.multiply(sums[index], scale, out=block)
            sums[index] = None
            block /= self.timing.tck
            cycles = window[:len(block)]
            cycles[...] = block
            np.minimum(cycles, last_cycle, out=cycles)
            gap_blocks.append(narrow_gaps(cycles, previous, scratch))
            previous = int(cycles[-1])
        del sums

        # The streaming mask, bit-packed: a block of flags packs to
        # whole bytes, at its own offset.
        is_streaming = np.empty(-(-n_requests // 8), dtype=np.uint8)
        n_streaming = 0
        for start, flags in _below_blocks(rng, spec.streaming_fraction, n_requests):
            is_streaming[start // 8:start // 8 + -(-len(flags) // 8)] = np.packbits(flags)
            n_streaming += int(np.count_nonzero(flags))

        # Zipf locality accesses: hot ranks mapped through a fixed
        # permutation of the working set (hot rows are scattered, not
        # the first N physical rows).
        local_rows = rng.permutation(self.footprint)
        local_rows += self.base_row

        # The Zipf uniforms come next in the stream, one 64-bit draw
        # each.  The blocks draw them from a copy of this state; the
        # main stream advances past them.  ``advance`` drops the
        # buffered 32-bit half-draw that ``permutation`` may leave and
        # ``integers`` reads, so it is put back.
        bit_generator = rng.bit_generator
        zipf_state = bit_generator.state
        bit_generator.advance(n_requests - n_streaming)
        state = bit_generator.state
        state["has_uint32"] = zipf_state["has_uint32"]
        state["uinteger"] = zipf_state["uinteger"]
        bit_generator.state = state

        # Streaming accesses: a wrap-around scan of the working set, i.e.
        # (scan_start + i) % footprint for the i-th streaming access.  A
        # block's scan is a slice of one lap tiled to a lap plus a block.
        scan_start = int(rng.integers(0, self.footprint))
        lap = np.roll(np.arange(self.footprint, dtype=np.int64), -scan_start)
        lap += self.base_row
        laps = np.resize(lap, self.footprint + len(window))
        row_blocks = _RowBlocks(
            is_streaming, n_requests, _GuideTable(self._zipf_probabilities()),
            local_rows, zipf_state, laps,
        )
        return tuple(gap_blocks), row_blocks


class _RowBlocks:
    """A trace's rows, produced :data:`_SAMPLE_BLOCK` requests at a time.

    Re-iterable: each pass restarts the Zipf uniforms from the saved
    bit-generator state, so every pass yields the same rows.  A block's
    locality requests take Zipf-ranked rows of the permuted working
    set, its streaming requests the next slice of the scan.

    Args:
        is_streaming: the per-request streaming mask, bit-packed.
        n_requests: requests in the trace.
        table: guide table of the Zipf popularity.
        local_rows: the permuted working set, indexed by Zipf rank.
        zipf_state: PCG64 state at the first Zipf uniform.
        laps: the scan's rows from its start, tiled to a lap plus a block.
    """

    def __init__(self, is_streaming, n_requests, table, local_rows, zipf_state, laps):
        self._is_streaming = is_streaming
        self._n_requests = n_requests
        self._table = table
        self._local_rows = local_rows
        self._zipf_state = zipf_state
        self._laps = laps

    def __iter__(self):
        """Every block into one reused buffer: copy a block to keep it."""
        return self._blocks(None)

    def write(self, out: np.ndarray) -> None:
        """Write every block into its slice of ``out`` (trace-length)."""
        for _ in self._blocks(out):
            pass

    def _blocks(self, out: Optional[np.ndarray]):
        bit_generator = np.random.PCG64()
        bit_generator.state = self._zipf_state
        zipf = np.random.Generator(bit_generator)
        n_requests, size = self._n_requests, _SAMPLE_BLOCK
        footprint = len(self._local_rows)
        uniforms = np.empty(min(n_requests, size))
        ranks = np.empty(len(uniforms), dtype=np.int64)
        if out is None:
            buffer = np.empty(len(uniforms), dtype=np.int64)
        scanned = 0
        for start in range(0, n_requests, size):
            end = min(start + size, n_requests)
            packed = self._is_streaming[start // 8:-(-end // 8)]
            mask = np.unpackbits(packed)[start % 8:start % 8 + end - start].view(bool)
            rows = buffer[:len(mask)] if out is None else out[start:end]
            local = np.flatnonzero(~mask)
            block = uniforms[:len(local)]
            zipf.random(out=block)
            self._table.resolve(block, out=ranks[:len(local)])
            rows[local] = np.take(self._local_rows, ranks[:len(local)])
            streaming = np.flatnonzero(mask)
            offset = scanned % footprint
            rows[streaming] = self._laps[offset:offset + len(streaming)]
            scanned += len(streaming)
            yield rows
