"""Refresh pricing is memoized per process, and a hit equals a computation.

``refresh-overhead`` and ``baseline-mechanism`` cells price through
:func:`repro.runner.cells._price`, backed by two memos: the built
policy and its evaluator per (bank, seed, registry entry, nbits), and
the priced statistics per (bank, seed, entry, nbits, duration), plus
the workload only when the evaluator reads the trace.  These tests pin:

* **one pricing per recipe** — ``fig4`` then ``baselines`` at one
  duration stream VRL-Access's trace once, and every payload equals a
  cold computation of its cell;
* **refresh-only columns** — RAIDR and VRL payloads are the same for
  every benchmark, priced once each;
* **the key** — for every registered mechanism, the workload leaves
  the key exactly when the evaluator does not read the trace;
* **registry entries** — re-registering a name with ``replace=True``
  builds a fresh policy;
* **failures** — a struck or raising cell is not memoized, so its
  retry computes.
"""

import pytest

from repro.controller import MECHANISMS
from repro.controller.registry import _build_fgr, _build_fixed
from repro.experiments.cli import main
from repro.runner import Cell, ExperimentRunner, compute_cell, executor
from repro.runner import cells
from repro.sim import FusedTimeline
from repro.technology import DEFAULT_TECH
from repro.workloads import TraceGenerator
from tests.fault_injection import Strike, inject


def forget_pricing() -> None:
    """Empty both pricing memos, so the next pricing computes."""
    cells._pricing_policy.cache_clear()
    cells._priced_stats.cache_clear()


@pytest.fixture(autouse=True)
def cold_pricing():
    forget_pricing()
    yield
    forget_pricing()


def _cell(kind, **fields):
    values = dict(tech=DEFAULT_TECH, rows=256, cols=16, seed=3, duration_seconds=0.05)
    return Cell.of(kind, **{**values, **fields})


def _cold(kind, params):
    """``compute_cell`` with both memos empty before and after."""
    forget_pricing()
    try:
        return compute_cell(kind, params)
    finally:
        forget_pricing()


@pytest.fixture
def streams(monkeypatch):
    """The durations of every ``TraceGenerator.stream`` call."""
    calls = []
    stream = TraceGenerator.stream

    def counting(generator, duration_seconds):
        calls.append(duration_seconds)
        return stream(generator, duration_seconds)

    monkeypatch.setattr(TraceGenerator, "stream", counting)
    return calls


@pytest.fixture
def computed(monkeypatch):
    """Every ``(kind, params, payload)`` the runner computes."""
    seen = []
    real = executor.compute_cell

    def recording(kind, params):
        payload = real(kind, params)
        seen.append((kind, params, payload))
        return payload

    monkeypatch.setattr(executor, "compute_cell", recording)
    return seen


class TestOnePricingPerRecipe:
    def test_fig4_then_baselines_stream_once(self, streams, computed):
        """Baselines' RAIDR, VRL and VRL-Access cells are fig4's recipes
        (canneal, 6 s, seed 2018, two-bit counters): only its fixed and
        FGR cells price anything new."""
        flags = ["--duration", "6", "--no-cache", "--runs-dir", ""]
        assert main(["fig4", "--benchmarks", "canneal", *flags]) == 0
        assert main(["baselines", *flags]) == 0
        assert streams == [6.0]
        assert [kind for kind, _, _ in computed] == (
            ["refresh-overhead"] * 3 + ["baseline-mechanism"] * 6
        )
        info = cells._priced_stats.cache_info()
        assert (info.misses, info.hits) == (6, 3)
        for kind, params, payload in computed:
            assert payload == _cold(kind, params), params

    def test_refresh_only_columns_equal_across_benchmarks(self, streams):
        benchmarks = ["swaptions", "canneal", "bgsave"]
        grid = [(policy, bench) for policy in ("raidr", "vrl", "vrl-access")
                for bench in benchmarks]
        sweep = [_cell("refresh-overhead", policy=policy, benchmark=bench)
                 for policy, bench in grid]
        payloads = dict(zip(grid, ExperimentRunner().run(sweep).results))
        for policy in ("raidr", "vrl"):
            column = [payloads[(policy, bench)] for bench in benchmarks]
            assert column == [column[0]] * len(benchmarks)
        assert len(streams) == len(benchmarks)  # VRL-Access only
        assert cells._priced_stats.cache_info().misses == 2 + len(benchmarks)
        assert cells._pricing_policy.cache_info().misses == 3
        for cell in sweep:
            assert payloads[tuple(cell.label.split("/"))] == _cold(cell.kind, cell.params)


class TestKey:
    @pytest.mark.parametrize("name", MECHANISMS.names())
    def test_benchmark_leaves_the_key_unless_the_trace_is_read(self, name):
        first = _cell("refresh-overhead", policy=name, benchmark="swaptions")
        second = _cell("refresh-overhead", policy=name, benchmark="canneal")
        compute_cell(first.kind, first.params)
        before = cells._priced_stats.cache_info()
        compute_cell(second.kind, second.params)
        after = cells._priced_stats.cache_info()
        _, evaluator = cells._pricing_policy(
            cells._freeze(first.params["tech"]), 256, 16, 3, MECHANISMS.get(name), 2
        )
        shared = after.hits == before.hits + 1
        assert shared == (not evaluator.reads_trace)
        assert after.misses == before.misses + (not shared)

    def test_every_key_field_separates_recipes(self):
        base = dict(policy="vrl", benchmark=None)
        variants = [
            base, {**base, "seed": 4}, {**base, "nbits": 3}, {**base, "rows": 128},
            {**base, "duration_seconds": 0.06}, {**base, "policy": "raidr"},
            {**base, "tech": DEFAULT_TECH.scaled(vdd=1.4)},
        ]
        for fields in variants:
            cell = _cell("refresh-overhead", **fields)
            compute_cell(cell.kind, cell.params)
        assert cells._priced_stats.cache_info().misses == len(variants)

    def test_fixed_64ms_is_fixed(self):
        """The baseline alias prices the ``fixed`` recipe."""
        fixed = _cell("refresh-overhead", policy="fixed", benchmark="canneal")
        alias = _cell("baseline-mechanism", mechanism="fixed-64ms", benchmark="canneal")
        stats = compute_cell(fixed.kind, fixed.params)
        payload = compute_cell(alias.kind, alias.params)
        assert payload["refresh_cycles"] == stats["refresh_cycles"]
        assert cells._priced_stats.cache_info().hits == 1


class TestRegistryEntries:
    def test_replaced_mechanism_gets_a_fresh_policy(self, monkeypatch):
        monkeypatch.setattr(MECHANISMS, "_infos", dict(MECHANISMS._infos))
        cell = _cell("refresh-overhead", policy="memo-probe", benchmark=None)
        MECHANISMS.register("memo-probe", _build_fixed)
        first = compute_cell(cell.kind, cell.params)
        MECHANISMS.register("memo-probe", _build_fgr(4), replace=True)
        second = compute_cell(cell.kind, cell.params)
        assert second != first
        assert second == _cold(cell.kind, cell.params)
        assert first == _cold(
            cell.kind, {**cell.params, "policy": "fixed"}
        )


class TestFailuresAreNotMemoized:
    def test_struck_cell_recomputes_on_retry(self, tmp_path):
        sweep = [_cell("refresh-overhead", policy=policy, benchmark="swaptions")
                 for policy in ("raidr", "vrl-access")]
        with inject(tmp_path / "markers", Strike("raise", "vrl-access/swaptions")):
            report = ExperimentRunner(retries=1, backoff_seconds=0.01).run(sweep)
        assert not report.failures
        assert [o.attempts for o in report.outcomes] == [1, 2]
        assert cells._priced_stats.cache_info().misses == 2
        assert report.results == [_cold(c.kind, c.params) for c in sweep]

    def test_pricing_that_raises_is_priced_again(self, monkeypatch):
        cell = _cell("baseline-mechanism", mechanism="vrl-access", benchmark="vips")
        evaluate = FusedTimeline.evaluate
        failures = []

        def failing_once(timeline, *args):
            if not failures:
                failures.append(True)
                raise RuntimeError("pricing failed")
            return evaluate(timeline, *args)

        monkeypatch.setattr(FusedTimeline, "evaluate", failing_once)
        report = ExperimentRunner(retries=1, backoff_seconds=0.01).run([cell])
        assert [o.attempts for o in report.outcomes] == [2]
        info = cells._priced_stats.cache_info()
        assert (info.misses, info.currsize) == (2, 1)
        monkeypatch.setattr(FusedTimeline, "evaluate", evaluate)
        assert report.results == [_cold(cell.kind, cell.params)]


def test_memos_are_bounded():
    """Room for a Fig. 4 sweep and the baseline comparison (6 policies,
    18 recipes), with a bound on what a long-lived process keeps."""
    assert cells._pricing_policy.cache_info().maxsize == 8
    assert cells._priced_stats.cache_info().maxsize == 64
