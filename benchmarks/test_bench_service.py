"""Sweep throughput: cells/s of a warm ``LocalClient.sweep``.

Times the drivers' sweep path on a warm result cache, where the
per-sweep overhead — key hashing, the cache read path, checkpoint and
manifest bookkeeping in the runner — dominates and compute does not:

* ``local`` — ``LocalClient.sweep`` of a block of cached cells built
  with ``Cell.of`` (recorded as ``queries_per_s``, so the
  ``service/warm`` trajectory stays one series).

The floor is deliberately conservative (an order of magnitude under a
cold CI box) — the committed trajectory in ``BENCH_service.json`` is
the real record; the assertion only catches pathological regressions
like a per-query runner invocation.
"""

import time

from bench_utils import record_service_bench
from repro.runner import Cell, ExperimentRunner, ResultCache
from repro.service import LocalClient
from repro.technology import DEFAULT_TECH

#: Distinct warm cells per timed sweep (tiny bank: overhead dominates).
SWEEP_SIZE = 32

#: Pathology floor, cells/s (see module docstring).
FLOOR_LOCAL = 20.0

CELLS = [
    Cell.of("temperature-point", tech=DEFAULT_TECH, rows=64, cols=8,
            temperature=30.0 + i, seed=11)
    for i in range(SWEEP_SIZE)
]


def _best_of(fn, rounds):
    """Minimum wall-clock of ``rounds`` calls (steady-state estimate)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


class TestServiceThroughput:
    def test_warm_query_throughput(self, benchmark, tmp_path):
        """The warm local sweep clears its floor."""
        client = LocalClient(ExperimentRunner(cache=ResultCache(tmp_path)))
        primed = client.sweep(CELLS)  # populate the cache
        assert not primed.failures

        seconds, warm = _best_of(lambda: client.sweep(CELLS), rounds=5)
        assert warm.hit_rate == 1.0
        assert warm.results == primed.results

        # pytest-benchmark record of the headline (warm local) path.
        benchmark.pedantic(client.sweep, args=(CELLS,), rounds=3)

        throughput = {"local": SWEEP_SIZE / seconds}
        benchmark.extra_info["sweep_size"] = SWEEP_SIZE
        benchmark.extra_info["local_queries_per_s"] = throughput["local"]
        record_service_bench(
            "service/warm",
            {
                "sweep_size": SWEEP_SIZE,
                "queries_per_s": throughput,
                "hit_rate": warm.hit_rate,
            },
        )
        print(
            f"\nservice: {SWEEP_SIZE} warm cells — "
            f"local {throughput['local']:,.0f}/s"
        )
        assert throughput["local"] >= FLOOR_LOCAL
