"""Invariant 13: driver ≡ runner, bit for bit.

A sweep driver handed a ``runner=`` must produce payloads bit-identical
to ``ExperimentRunner.run`` on the same cells, and the same table on a
warm rerun through a shared cached runner.  Below the drivers,
``LocalClient.sweep`` (the boundary every driver hands its cells to)
must return exactly ``runner.run``'s payloads, at any ``jobs``, with
cells repeated in a block, and after an interrupted sweep is resumed.
No tolerance: repeatability here is exact equality.
"""

import pytest

from repro.experiments import (
    run_baseline_comparison,
    run_calibration_study,
    run_fig4,
    run_mechanism_matrix,
    run_performance_study,
    run_rank_comparison,
    run_temperature_study,
)
from repro.runner import Cell, ExperimentRunner, ResultCache, latest_manifest
from repro.service import LocalClient
from repro.technology import DEFAULT_TECH, BankGeometry
from tests.fault_injection import Strike, inject
from tests.test_pricing_memo import forget_pricing

GEOMETRY = BankGeometry(128, 16)

FIG4_KWARGS = dict(
    geometry=GEOMETRY, duration_seconds=0.05, benchmarks=["blackscholes"],
    seed=5, include_power=False,
)
TEMP_KWARGS = dict(geometry=GEOMETRY, temperatures=(45.0, 55.0), seed=5)
MECH_KWARGS = dict(
    geometry=GEOMETRY, mechanisms=("fixed", "darp", "chargecache", "avatar"),
    benchmarks=("blackscholes",), temperatures=(45.0,), duration_seconds=0.05,
    seed=5,
)
RANK_KWARGS = dict(geometry=GEOMETRY, n_banks=2, duration_seconds=0.05, seed=5)
BASELINE_KWARGS = dict(geometry=GEOMETRY, duration_seconds=0.05, seed=5)
PERF_KWARGS = dict(
    geometry=GEOMETRY, duration_seconds=0.02, benchmarks=["swaptions"], seed=5
)
CALIB_KWARGS = dict(geometry=GEOMETRY, targets=(None,), n_points=4)


def _table(result):
    """The comparable content: headers + rows (notes carry timings)."""
    return (list(result.headers), [tuple(r) for r in result.rows])


class _RecordingRunner(ExperimentRunner):
    """A serial uncached runner that keeps each sweep's cells and payloads."""

    def __init__(self):
        super().__init__()
        self.sweeps = []

    def run(self, cells, experiment=""):
        report = super().run(cells, experiment)
        self.sweeps.append((list(cells), report.results))
        return report


@pytest.mark.parametrize(
    "driver, kwargs",
    [
        (run_fig4, FIG4_KWARGS),
        (run_temperature_study, TEMP_KWARGS),
        (run_mechanism_matrix, MECH_KWARGS),
        (run_rank_comparison, RANK_KWARGS),
        (run_baseline_comparison, BASELINE_KWARGS),
        (run_performance_study, PERF_KWARGS),
        (run_calibration_study, CALIB_KWARGS),
    ],
    ids=[
        "fig4", "temperature", "mechanisms", "rank", "baselines",
        "performance", "calibrate",
    ],
)
class TestDriverPathsIdentical:
    def test_payloads_equal_runner_run_on_the_same_cells(self, driver, kwargs):
        recorder = _RecordingRunner()
        via_driver = driver(runner=recorder, **kwargs)
        (cells, payloads), = recorder.sweeps
        forget_pricing()  # recompute, rather than read the driver's pricing
        assert payloads == ExperimentRunner().run(cells).results
        assert via_driver.rows  # the table was built from those payloads

    def test_warm_rerun_identical_through_shared_runner(self, driver, kwargs, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        cold = driver(runner=runner, **kwargs)
        warm = driver(runner=runner, **kwargs)
        assert _table(cold) == _table(warm)


class TestCellLevelEquivalence:
    """Below the drivers: raw runner payloads == sweep-boundary payloads."""

    CELLS = [
        Cell.of("temperature-point", tech=DEFAULT_TECH, rows=64, cols=8,
                temperature=t, seed=9)
        for t in (45.0, 65.0, 85.0)
    ] + [
        Cell.of("refresh-overhead", tech=DEFAULT_TECH, rows=64, cols=8,
                policy=p, seed=9, duration_seconds=0.2)
        for p in ("raidr", "vrl", "vrl-access")
    ]

    def test_direct_runner_equals_service(self):
        direct = ExperimentRunner().run(self.CELLS)
        forget_pricing()
        swept = LocalClient().sweep(self.CELLS)
        assert swept.results == direct.results

    def test_parallel_service_equals_serial_service(self):
        one = LocalClient(ExperimentRunner(jobs=1)).sweep(self.CELLS)
        forget_pricing()  # forked workers would inherit the serial pricing
        two = LocalClient(ExperimentRunner(jobs=2)).sweep(self.CELLS)
        assert one.results == two.results

    def test_repeated_cells_do_not_perturb_payloads(self):
        direct = ExperimentRunner().run(self.CELLS)
        forget_pricing()
        swept = LocalClient().sweep(self.CELLS + self.CELLS)
        n = len(self.CELLS)
        assert swept.results[:n] == swept.results[n:] == direct.results

    def test_warm_sweep_equals_cold_sweep(self, tmp_path):
        client = LocalClient(ExperimentRunner(cache=ResultCache(tmp_path)))
        cold = client.sweep(self.CELLS)
        warm = client.sweep(self.CELLS)
        assert cold.hit_rate == 0.0 and warm.hit_rate == 1.0
        assert warm.results == cold.results

    def test_resumed_sweep_equals_uninterrupted_sweep(self, tmp_path):
        direct = ExperimentRunner().run(self.CELLS)
        forget_pricing()
        interrupted = LocalClient(ExperimentRunner(runs_dir=tmp_path))
        strike = Strike("interrupt", self.CELLS[2].label)
        with inject(tmp_path / "markers", strike), pytest.raises(KeyboardInterrupt):
            interrupted.sweep(self.CELLS)
        resumed = LocalClient(
            ExperimentRunner(resume_from=latest_manifest(tmp_path))
        ).sweep(self.CELLS)
        assert [o.worker for o in resumed.outcomes[:2]] == ["resume", "resume"]
        assert resumed.cache_hits == 2
        assert resumed.results == direct.results
