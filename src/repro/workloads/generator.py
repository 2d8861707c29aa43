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
``random(n)`` draw.  The draws are made in blocks, in the order of one
full-length draw per array; a chunked ``standard_exponential`` or
``random`` fill is the same stream with the same end state, so a
block-filled trace is byte for byte the trace of whole-array draws.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from ..sim.timing import DRAMTiming
from ..sim.trace import MemoryTrace
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


def _draw_below(
    rng: np.random.Generator, fraction: float, uniforms: np.ndarray, size: int
) -> np.ndarray:
    """``rng.random(size) < fraction``, drawn through the block buffer ``uniforms``."""
    below = np.empty(size, dtype=bool)
    for start in range(0, size, len(uniforms)):
        block = uniforms[:min(len(uniforms), size - start)]
        rng.random(out=block)
        np.less(block, fraction, out=below[start:start + len(block)])
    return below


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

        Fills the trace's arrays in place, :data:`_SAMPLE_BLOCK` requests
        at a time: the only full-length arrays are ``cycles``, ``rows``,
        ``is_write`` and a one-byte-per-request streaming mask.
        """
        if not math.isfinite(duration_seconds) or duration_seconds <= 0:
            raise ValueError(
                f"duration must be positive and finite, got {duration_seconds}"
            )
        spec = self.spec
        rng = self.rng
        n_requests = max(1, int(spec.requests_per_second * duration_seconds))
        blocks = range(0, n_requests, _SAMPLE_BLOCK)
        uniforms = np.empty(min(n_requests, _SAMPLE_BLOCK))

        # Poisson arrivals, rescaled to exactly fill the duration.  The
        # running sum lives in the float64 view of ``cycles``; carrying
        # the previous block's total into each block's first element
        # keeps every partial sum the one a full-length cumsum gives.
        cycles = np.empty(n_requests, dtype=np.int64)
        arrivals = cycles.view(np.float64)
        for start in blocks:
            block = arrivals[start:start + _SAMPLE_BLOCK]
            rng.standard_exponential(out=block)
            if start:
                block[0] += arrivals[start - 1]
            np.cumsum(block, out=block)
        scale = duration_seconds / arrivals[-1]
        last_cycle = self.timing.cycles(duration_seconds) - 1
        for start in blocks:
            block = uniforms[:min(_SAMPLE_BLOCK, n_requests - start)]
            np.multiply(arrivals[start:start + _SAMPLE_BLOCK], scale, out=block)
            block /= self.timing.tck
            window = cycles[start:start + _SAMPLE_BLOCK]
            window[...] = block
            np.minimum(window, last_cycle, out=window)
        del arrivals

        is_streaming = _draw_below(rng, spec.streaming_fraction, uniforms, n_requests)

        # Zipf locality accesses: hot ranks mapped through a fixed
        # permutation of the working set (hot rows are scattered, not
        # the first N physical rows).
        local_rows = rng.permutation(self.footprint)
        local_rows += self.base_row
        table = _GuideTable(self._zipf_probabilities())
        ranks = np.empty(len(uniforms), dtype=np.int64)
        rows = np.empty(n_requests, dtype=np.int64)
        for start in blocks:
            local = np.flatnonzero(~is_streaming[start:start + _SAMPLE_BLOCK])
            block = uniforms[:len(local)]
            rng.random(out=block)
            table.resolve(block, out=ranks[:len(local)])
            local += start
            rows[local] = np.take(local_rows, ranks[:len(local)])
        del local_rows, ranks

        # Streaming accesses: a wrap-around scan of the working set, i.e.
        # (scan_start + i) % footprint for the i-th streaming access.  A
        # block's scan is a slice of one lap tiled to a lap plus a block.
        scan_start = int(rng.integers(0, self.footprint))
        lap = np.roll(np.arange(self.footprint, dtype=np.int64), -scan_start)
        lap += self.base_row
        laps = np.resize(lap, self.footprint + len(uniforms))
        del lap
        scanned = 0
        for start in blocks:
            streaming = np.flatnonzero(is_streaming[start:start + _SAMPLE_BLOCK])
            offset = scanned % self.footprint
            streaming += start
            rows[streaming] = laps[offset:offset + len(streaming)]
            scanned += len(streaming)
        del is_streaming, laps

        is_write = _draw_below(rng, spec.write_fraction, uniforms, n_requests)
        return MemoryTrace(
            cycles=cycles, rows=rows, is_write=is_write, name=spec.name
        )
