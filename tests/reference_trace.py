"""Test-side oracles of the per-request trace passes, the Fig. 4 suite's
traces, and the multi-programmed trace merge.

* :func:`reference_generate` — :meth:`TraceGenerator.generate` as a
  one-shot pass over whole-trace arrays (a full-length exponential
  draw, cumsum and rescale; one ``random(n)`` draw per mask; Zipf ranks
  from :func:`reference_sample_categorical`, the searchsorted-built
  guide table; boolean-mask scatters).  The block-filled generator must
  return the same bytes and leave its RNG in the same state;
* :func:`reference_access_resets` — ``timeline.access_resets`` over
  whole-trace ordinal and key arrays, with the span read off the
  ordinals.  The blocked pass must return the same resets;
* :func:`flat_readback_access_resets` — the blocked
  ``timeline.access_resets`` as it read its bitmap back before the
  row-aligned windows: flat key windows, ``flatnonzero``, ``divmod``
  and a ``counts`` filter.  The row-window read-back must return the
  same resets on the same blocks;
* :func:`generate_suite` — every Fig. 4 workload's trace, for the
  suite digest tests;
* :func:`merge_traces` — several traces interleaved into one
  time-ordered stream, for the multi-programmed engine fuzz cases.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim import DRAMTiming, MemoryTrace
from repro.sim import timeline
from repro.sim.trace import StreamedTrace
from repro.technology import BankGeometry, DEFAULT_GEOMETRY
from repro.workloads import PARSEC_WORKLOADS, TraceGenerator


def reference_sample_categorical(
    rng: np.random.Generator, probabilities: np.ndarray, size: int
) -> np.ndarray:
    """``Generator.choice(len(p), size, p=p)`` from one ``random(size)`` draw."""
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    uniforms = rng.random(size)
    n_buckets = min(1 << 20, 1 << (8 * len(cdf) - 1).bit_length())
    edges = np.arange(n_buckets + 1, dtype=float) / n_buckets
    base = np.searchsorted(cdf, edges[:-1], side="right")
    crowded = np.searchsorted(cdf, edges[1:], side="left") - base > 1
    del edges
    indices = np.empty(size, dtype=np.int64)
    for start in range(0, size, 1 << 16):
        u = uniforms[start:start + (1 << 16)]
        bucket = (u * n_buckets).astype(np.intp)
        block = base[bucket]
        block += cdf[block] <= u
        slow = np.flatnonzero(crowded[bucket])
        if len(slow):
            block[slow] = np.searchsorted(cdf, u[slow], side="right")
        indices[start:start + (1 << 16)] = block
    return indices


def reference_generate(generator: TraceGenerator, duration_seconds: float) -> MemoryTrace:
    """The trace ``generator.generate(duration_seconds)`` must return."""
    spec = generator.spec
    rng = generator.rng
    n_requests = max(1, int(spec.requests_per_second * duration_seconds))

    arrivals = rng.exponential(1.0, size=n_requests)
    np.cumsum(arrivals, out=arrivals)
    arrivals *= duration_seconds / arrivals[-1]
    arrivals /= generator.timing.tck
    cycles = arrivals.astype(np.int64)
    del arrivals
    np.minimum(cycles, generator.timing.cycles(duration_seconds) - 1, out=cycles)

    is_streaming = rng.random(n_requests) < spec.streaming_fraction
    n_streaming = int(np.count_nonzero(is_streaming))

    permutation = rng.permutation(generator.footprint)
    local_ranks = reference_sample_categorical(
        rng, generator._zipf_probabilities(), n_requests - n_streaming
    )
    rows = np.empty(n_requests, dtype=np.int64)
    rows[~is_streaming] = permutation[local_ranks]
    del local_ranks

    scan_start = int(rng.integers(0, generator.footprint))
    lap = np.roll(np.arange(generator.footprint, dtype=np.int64), -scan_start)
    rows[is_streaming] = np.resize(lap, n_streaming)

    rows += generator.base_row
    is_write = rng.random(n_requests) < spec.write_fraction
    return MemoryTrace(cycles=cycles, rows=rows, is_write=is_write, name=spec.name)


def reference_access_resets(
    rows: np.ndarray,
    cycles: np.ndarray,
    first: np.ndarray,
    periods_cycles: np.ndarray,
    counts: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The resets ``access_resets`` must return, from whole-trace arrays."""
    rows = np.asarray(rows, dtype=np.int64)
    cycles = np.asarray(cycles, dtype=np.int64)
    in_bank = (rows >= 0) & (rows < len(first))
    if not in_bank.all():
        rows, cycles = rows[in_bank], cycles[in_bank]
    del in_bank
    if len(rows) == 0:
        return rows, np.empty(0, dtype=np.int64)
    ordinals = cycles - np.take(first, rows)
    ordinals //= np.take(periods_cycles, rows)
    ordinals += 1
    np.maximum(ordinals, 0, out=ordinals)
    span = int(ordinals.max()) + 1
    keys = rows * span
    keys += ordinals
    del ordinals
    limit = max(1 << 20, 8 * len(keys))
    if len(first) * span <= limit:
        marked = _set_bits(keys, len(first) * span)
    else:
        marked = _windowed_set_bits(keys, limit)
    del keys
    reset_rows, reset_ordinals = np.divmod(marked, span)
    if counts is not None:
        live = reset_ordinals < counts[reset_rows]
        reset_rows, reset_ordinals = reset_rows[live], reset_ordinals[live]
    return reset_rows, reset_ordinals


def _set_bits(keys: np.ndarray, size: int) -> np.ndarray:
    """Distinct ``keys`` in ``[0, size)``, ascending, via a bitmap."""
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    return np.flatnonzero(seen)


def _windowed_set_bits(keys: np.ndarray, limit: int) -> np.ndarray:
    """:func:`_set_bits` one ``limit``-key window at a time."""
    found = []
    while len(keys):
        start = int(keys.min())
        inside = keys < start + limit
        window = keys[inside]
        window -= start
        bits = _set_bits(window, int(window.max()) + 1)
        bits += start
        found.append(bits)
        keys = keys[~inside]
    return np.concatenate(found)


def flat_readback_access_resets(blocks, first, periods_cycles, counts=None):
    """``access_resets`` with the flat-key read-back, the same passes over
    ``blocks`` and the same bitmap budget."""
    if isinstance(blocks, StreamedTrace):
        n_accesses, latest = len(blocks), blocks.last_cycle
    else:
        n_accesses = sum(len(cycles) for cycles, _ in blocks)
        latest = max((int(np.max(cycles)) for cycles, _ in blocks if len(cycles)), default=0)
    if n_accesses == 0 or len(first) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    cap = max(0, int(((latest - first) // periods_cycles).max()) + 1)
    span = cap + 1
    size = len(first) * span
    budget = max(timeline._RESET_BITMAP_FLOOR, timeline._RESET_BITMAP_PER_ACCESS * n_accesses)
    window = min(size, budget)
    seen = np.zeros(window, dtype=bool)
    found = []
    start = 0
    while start < size:
        end = start + window
        following = size
        for keys in timeline._reset_keys(blocks, first, periods_cycles, span):
            if window < size:
                following = min(following, int(keys.min(where=keys >= end, initial=size)))
                keys = keys[(keys >= start) & (keys < end)] - start
            seen[keys] = True
        bits = np.flatnonzero(seen)
        bits += start
        found.append(bits)
        seen[:] = False
        start = following
    marked = np.concatenate(found) if len(found) > 1 else found[0]
    reset_rows, reset_ordinals = np.divmod(marked, span)
    if counts is not None:
        live = reset_ordinals < counts[reset_rows]
        reset_rows, reset_ordinals = reset_rows[live], reset_ordinals[live]
    return reset_rows, reset_ordinals


def generate_suite(
    timing: DRAMTiming,
    duration_seconds: float,
    geometry: BankGeometry = DEFAULT_GEOMETRY,
    seed: int = TraceGenerator.DEFAULT_SEED,
    names: list[str] | None = None,
) -> dict[str, MemoryTrace]:
    """The Fig. 4 suite's traces, keyed by workload name.

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


def merge_traces(traces: "list[MemoryTrace]", name: str = "merged") -> MemoryTrace:
    """Interleave several traces into one time-ordered request stream.

    The multi-programmed-workload primitive: each input keeps its own
    row addresses and the merge is stable, so simultaneous requests keep
    their input order.
    """
    traces = [t for t in traces if len(t)]
    if not traces:
        return MemoryTrace(
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([], dtype=bool),
            name=name,
        )
    cycles = np.concatenate([t.cycles for t in traces])
    rows = np.concatenate([t.rows for t in traces])
    writes = np.concatenate([t.is_write for t in traces])
    order = np.argsort(cycles, kind="stable")
    return MemoryTrace(
        cycles=cycles[order], rows=rows[order], is_write=writes[order], name=name
    )
