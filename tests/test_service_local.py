"""LocalClient: the sweep boundary returns the runner's own report.

A sweep runs on the calling thread, so the runner's contracts hold
end to end: results come back in input order, repeats hit the shared
cache, a failing cell is reported rather than raised, an interrupt
propagates after flushing an ``"interrupted"`` manifest, and the
report's ``notes()`` carry the same ``runner ...`` keys the drivers
attach to their results.
"""

import pytest

from repro.runner import (
    Cell,
    ExperimentRunner,
    ResultCache,
    RunReport,
    latest_manifest,
    load_manifest,
)
from repro.service import LocalClient
from repro.technology import DEFAULT_TECH
from tests.fault_injection import Strike, inject


def _temp_cell(temperature=45.0, seed=7, rows=64):
    return Cell.of("temperature-point", tech=DEFAULT_TECH, rows=rows,
                   cols=8, temperature=temperature, seed=seed)


class TestLocalClient:
    def test_repeat_sweep_hits_shared_cache(self, tmp_path):
        client = LocalClient(ExperimentRunner(cache=ResultCache(tmp_path)))
        cell = _temp_cell()
        cold = client.sweep([cell])
        warm = client.sweep([cell])
        assert not cold.outcomes[0].cache_hit and warm.outcomes[0].cache_hit
        assert warm.results == cold.results

    def test_sweep_returns_runner_report(self):
        report = LocalClient().sweep([_temp_cell()], experiment="plain")
        assert isinstance(report, RunReport)
        assert report.experiment == "plain"

    def test_report_mirrors_runner_notes_shape(self, tmp_path):
        client = LocalClient(ExperimentRunner(cache=ResultCache(tmp_path)))
        client.sweep([_temp_cell(40.0)])
        report = client.sweep(
            [_temp_cell(40.0), _temp_cell(50.0), _temp_cell(60.0)],
            experiment="notes",
        )
        notes = report.notes()
        assert notes["runner"].startswith("3 cells, jobs=1, 1 cached / 2 computed")
        assert "runner failures" not in notes
        assert "runner slowest cell" in notes
        assert report.cache_hits == 1
        assert [p is not None for p in report.results] == [True, True, True]

    def test_results_in_input_order(self):
        temps = (65.0, 45.0, 55.0)
        report = LocalClient().sweep([_temp_cell(t) for t in temps])
        assert [o.label for o in report.outcomes] == [f"temp/{t:.0f}C" for t in temps]
        assert report.results == [o.payload for o in report.outcomes]

    def test_hit_rate_accounts_every_cell(self, tmp_path):
        client = LocalClient(ExperimentRunner(cache=ResultCache(tmp_path)))
        client.sweep([_temp_cell(40.0)])
        report = client.sweep([_temp_cell(40.0), _temp_cell(50.0), _temp_cell(60.0)])
        assert report.cache_hits + report.cache_misses == len(report.outcomes) == 3
        assert report.hit_rate == pytest.approx(1 / 3)

    def test_failed_cell_is_reported_not_raised(self, tmp_path):
        client = LocalClient(ExperimentRunner())
        with inject(tmp_path, Strike("raise", "temp/50C")):
            report = client.sweep([_temp_cell(t) for t in (40.0, 50.0, 60.0)])
        assert [p is not None for p in report.results] == [True, False, True]
        assert [o.label for o in report.failures] == ["temp/50C"]
        assert report.failures[0].error.kind == "exception"
        assert report.notes()["runner failures"].startswith("1/3 cells failed")

    def test_interrupt_propagates_after_flushing_manifest(self, tmp_path):
        client = LocalClient(ExperimentRunner(runs_dir=tmp_path))
        strike = Strike("interrupt", "temp/50C")
        with inject(tmp_path / "markers", strike), pytest.raises(KeyboardInterrupt):
            client.sweep([_temp_cell(t) for t in (40.0, 50.0, 60.0)],
                         experiment="ctrl-c")
        manifest = load_manifest(latest_manifest(tmp_path))
        assert manifest["experiment"] == "ctrl-c"
        assert manifest["status"] == "interrupted"
        assert [c["label"] for c in manifest["cells"]] == ["temp/40C"]

    def test_sweep_writes_the_experiment_manifest(self, tmp_path):
        client = LocalClient(ExperimentRunner(runs_dir=tmp_path))
        report = client.sweep([_temp_cell()], experiment="plain")
        assert report.manifest_path == latest_manifest(tmp_path)
        manifest = load_manifest(report.manifest_path)
        assert manifest["experiment"] == "plain"
        assert manifest["status"] == "complete"
        assert report.notes()["runner manifest"] == str(report.manifest_path)

    def test_empty_sweep_returns_empty_report(self):
        report = LocalClient().sweep([], experiment="nothing")
        assert report.outcomes == [] and report.results == []
        assert report.status == "complete"
        assert report.hit_rate == 0.0

    def test_default_runner_is_serial_and_uncached(self):
        runner = LocalClient().runner
        assert runner.jobs == 1
        assert runner.cache is None and runner.runs_dir is None
