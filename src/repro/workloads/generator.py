"""Synthetic trace generation from a :class:`WorkloadSpec`.

The generator produces a Poisson arrival stream over a contiguous
working-set block of rows.  Each request is either:

* a **locality** access — row drawn from a Zipf-ranked popularity
  distribution over the working set (hot rows reused constantly), or
* a **streaming** access — the next row of a wrap-around sequential
  scanner (models tiling/scan phases).

Determinism: the RNG is seeded from the workload name and an explicit
seed, so the full Fig. 4 suite is reproducible bit-for-bit.  A trace
depends only on the generator's ``exponential`` / ``random`` /
``permutation`` / ``integers`` stream, not on numpy's ``choice``
internals: Zipf ranks come from :func:`_sample_categorical`, which
returns exactly what ``Generator.choice(len(p), n, p=p)`` returns from
the same ``random(n)`` draw.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from ..sim.timing import DRAMTiming
from ..sim.trace import MemoryTrace
from ..technology import BankGeometry, DEFAULT_GEOMETRY
from .benchmarks import PARSEC_WORKLOADS, WorkloadSpec


#: Guide-table buckets per category (rounded up to a power of two).
_BUCKETS_PER_CATEGORY = 8
#: Largest guide table; wider distributions fall back more often.
_MAX_BUCKETS = 1 << 20
#: Samples resolved per vectorized block (bounds the temporaries).
_SAMPLE_BLOCK = 1 << 16


def _seed_for(name: str, seed: int) -> int:
    """A stable per-workload RNG seed derived from the name."""
    digest = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _sample_categorical(
    rng: np.random.Generator, probabilities: np.ndarray, size: int
) -> np.ndarray:
    """``size`` indices drawn from ``probabilities``, as ``choice`` draws them.

    ``Generator.choice(len(p), size, p=p)`` draws ``u = rng.random(size)``
    and returns ``#(cdf <= u)`` for ``cdf = p.cumsum() / p.cumsum()[-1]``
    by binary search.  This returns the same indices from the same single
    ``random`` draw, so the generator's stream and end state are
    unchanged, but resolves most samples with one compare: ``u`` in
    guide bucket ``b = floor(u * K)`` (``K`` a power of two, so
    ``u * K`` and ``b / K`` are exact) has an index in
    ``[#(cdf <= b/K), #(cdf < (b+1)/K)]``.  A bucket holding at most one
    CDF boundary settles with ``cdf[base] <= u``; samples in the few
    buckets holding more go to ``np.searchsorted``.  Blocks of
    :data:`_SAMPLE_BLOCK` samples keep the temporaries small, so the
    peak is ``choice``'s own ``u`` and index arrays.
    """
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    uniforms = rng.random(size)
    n_buckets = min(
        _MAX_BUCKETS, 1 << (_BUCKETS_PER_CATEGORY * len(cdf) - 1).bit_length()
    )
    edges = np.arange(n_buckets + 1, dtype=float) / n_buckets
    base = np.searchsorted(cdf, edges[:-1], side="right")
    crowded = np.searchsorted(cdf, edges[1:], side="left") - base > 1
    del edges
    indices = np.empty(size, dtype=np.int64)
    for start in range(0, size, _SAMPLE_BLOCK):
        u = uniforms[start:start + _SAMPLE_BLOCK]
        bucket = (u * n_buckets).astype(np.intp)
        block = base[bucket]
        block += cdf[block] <= u
        slow = np.flatnonzero(crowded[bucket])
        if len(slow):
            block[slow] = np.searchsorted(cdf, u[slow], side="right")
        indices[start:start + _SAMPLE_BLOCK] = block
    return indices


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
        """Generate a trace covering ``duration_seconds`` of bank time."""
        if not math.isfinite(duration_seconds) or duration_seconds <= 0:
            raise ValueError(
                f"duration must be positive and finite, got {duration_seconds}"
            )
        spec = self.spec
        n_requests = max(1, int(spec.requests_per_second * duration_seconds))

        # Poisson arrivals, rescaled to exactly fill the duration.
        arrivals = self.rng.exponential(1.0, size=n_requests)
        np.cumsum(arrivals, out=arrivals)
        arrivals *= duration_seconds / arrivals[-1]
        arrivals /= self.timing.tck
        cycles = arrivals.astype(np.int64)
        del arrivals
        np.minimum(cycles, self.timing.cycles(duration_seconds) - 1, out=cycles)

        is_streaming = self.rng.random(n_requests) < spec.streaming_fraction
        n_streaming = int(np.count_nonzero(is_streaming))

        # Zipf locality accesses: hot ranks mapped through a fixed
        # permutation of the working set (hot rows are scattered, not
        # the first N physical rows).
        permutation = self.rng.permutation(self.footprint)
        local_ranks = _sample_categorical(
            self.rng, self._zipf_probabilities(), n_requests - n_streaming
        )
        rows = np.empty(n_requests, dtype=np.int64)
        rows[~is_streaming] = permutation[local_ranks]
        del local_ranks

        # Streaming accesses: a wrap-around scan of the working set, i.e.
        # (scan_start + i) % footprint, tiled from one rotated lap.
        scan_start = int(self.rng.integers(0, self.footprint))
        lap = np.roll(np.arange(self.footprint, dtype=np.int64), -scan_start)
        rows[is_streaming] = np.resize(lap, n_streaming)

        rows += self.base_row
        is_write = self.rng.random(n_requests) < spec.write_fraction
        return MemoryTrace(
            cycles=cycles, rows=rows, is_write=is_write, name=spec.name
        )


def generate_suite(
    timing: DRAMTiming,
    duration_seconds: float,
    geometry: BankGeometry = DEFAULT_GEOMETRY,
    seed: int = TraceGenerator.DEFAULT_SEED,
    names: list[str] | None = None,
) -> dict[str, MemoryTrace]:
    """Generate the full Fig. 4 benchmark suite.

    Args:
        timing: controller timing.
        duration_seconds: trace length.
        geometry: target bank.
        seed: base RNG seed.
        names: subset of benchmark names; defaults to the whole suite.
    """
    selected = names if names is not None else list(PARSEC_WORKLOADS)
    traces = {}
    for name in selected:
        if name not in PARSEC_WORKLOADS:
            raise KeyError(
                f"unknown workload {name!r}; available: {list(PARSEC_WORKLOADS)}"
            )
        generator = TraceGenerator(PARSEC_WORKLOADS[name], timing, geometry, seed)
        traces[name] = generator.generate(duration_seconds)
    return traces
