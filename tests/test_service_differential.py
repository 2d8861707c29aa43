"""Invariant 13: driver ≡ runner, bit for bit.

Two ways to run the same experiment — handing the driver a bare
``ExperimentRunner`` and handing it a shared ``LocalClient`` — must
produce bit-identical ``ExperimentResult`` headers and rows, cold or
warm.  Below the drivers, a raw ``runner.run`` of the hand-built cells
must produce payloads bit-identical to ``LocalClient.sweep`` of the
equivalent typed queries, at any ``jobs``, with queries repeated in a
block, and after an interrupted sweep is resumed.  No tolerance:
repeatability here is exact equality.
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
from repro.runner import ExperimentRunner, ResultCache, latest_manifest
from repro.service import LocalClient, Query
from repro.technology import DEFAULT_TECH, BankGeometry

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
    def test_runner_vs_local_client(self, driver, kwargs):
        via_runner = driver(runner=ExperimentRunner(), **kwargs)
        with LocalClient() as client:
            via_client = driver(client=client, **kwargs)
        assert _table(via_runner) == _table(via_client)

    def test_warm_rerun_identical_through_shared_client(self, driver, kwargs, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        with LocalClient(runner=runner) as client:
            cold = driver(client=client, **kwargs)
            warm = driver(client=client, **kwargs)
        assert _table(cold) == _table(warm)


class TestCellLevelEquivalence:
    """Below the drivers: raw runner payloads == client payloads."""

    QUERIES = [
        Query(kind="temperature-point", tech=DEFAULT_TECH, rows=64, cols=8,
              temperature=t, seed=9)
        for t in (45.0, 65.0, 85.0)
    ] + [
        Query(kind="refresh-overhead", tech=DEFAULT_TECH, rows=64, cols=8,
              policy=p, seed=9, duration_seconds=0.2)
        for p in ("raidr", "vrl", "vrl-access")
    ]

    def test_direct_runner_equals_service(self):
        direct = ExperimentRunner().run([q.to_cell() for q in self.QUERIES])
        swept = LocalClient().sweep(self.QUERIES)
        assert swept.results == direct.results

    def test_parallel_service_equals_serial_service(self):
        one = LocalClient(ExperimentRunner(jobs=1)).sweep(self.QUERIES)
        two = LocalClient(ExperimentRunner(jobs=2)).sweep(self.QUERIES)
        assert one.results == two.results

    def test_repeated_queries_do_not_perturb_payloads(self):
        direct = ExperimentRunner().run([q.to_cell() for q in self.QUERIES])
        swept = LocalClient().sweep(self.QUERIES + self.QUERIES)
        n = len(self.QUERIES)
        assert swept.results[:n] == swept.results[n:] == direct.results

    def test_warm_sweep_equals_cold_sweep(self, tmp_path):
        client = LocalClient(ExperimentRunner(cache=ResultCache(tmp_path)))
        cold = client.sweep(self.QUERIES)
        warm = client.sweep(self.QUERIES)
        assert cold.hit_rate == 0.0 and warm.hit_rate == 1.0
        assert warm.results == cold.results

    def test_resumed_sweep_equals_uninterrupted_sweep(self, tmp_path):
        direct = ExperimentRunner().run([q.to_cell() for q in self.QUERIES])
        interrupted = LocalClient(
            ExperimentRunner(runs_dir=tmp_path, faults="interrupt@2")
        )
        with pytest.raises(KeyboardInterrupt):
            interrupted.sweep(self.QUERIES)
        resumed = LocalClient(
            ExperimentRunner(resume_from=latest_manifest(tmp_path))
        ).sweep(self.QUERIES)
        assert [o.worker for o in resumed.outcomes[:2]] == ["resume", "resume"]
        assert resumed.cache_hits == 2
        assert resumed.results == direct.results
