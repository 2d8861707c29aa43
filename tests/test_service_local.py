"""LocalClient: the sweep client returns the runner's own report.

A sweep runs on the calling thread, so the runner's contracts hold
end to end: results come back in input order, repeats hit the shared
cache, a failing cell is reported rather than raised, an interrupt
propagates after flushing an ``"interrupted"`` manifest, and the
report's ``notes()`` carry the same ``runner ...`` keys the drivers
attach to their results.
"""

import pytest

from repro.runner import (
    ExperimentRunner,
    ResultCache,
    RunReport,
    latest_manifest,
    load_manifest,
)
from repro.service import LocalClient, Query, driver_client
from repro.technology import DEFAULT_TECH


def _temp_query(temperature=45.0, seed=7, rows=64):
    return Query(kind="temperature-point", tech=DEFAULT_TECH, rows=rows,
                 cols=8, temperature=temperature, seed=seed)


class TestLocalClient:
    def test_repeat_sweep_hits_shared_cache(self, tmp_path):
        client = LocalClient(ExperimentRunner(cache=ResultCache(tmp_path)))
        query = _temp_query()
        cold = client.sweep([query])
        warm = client.sweep([query])
        assert not cold.outcomes[0].cache_hit and warm.outcomes[0].cache_hit
        assert warm.results == cold.results

    def test_sweep_returns_runner_report(self):
        with LocalClient() as client:
            report = client.sweep([_temp_query()], experiment="plain")
        assert isinstance(report, RunReport)
        assert report.experiment == "plain"

    def test_report_mirrors_runner_notes_shape(self, tmp_path):
        client = LocalClient(ExperimentRunner(cache=ResultCache(tmp_path)))
        client.sweep([_temp_query(40.0)])
        report = client.sweep(
            [_temp_query(40.0), _temp_query(50.0), _temp_query(60.0)],
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
        report = LocalClient().sweep([_temp_query(t) for t in temps])
        assert [o.label for o in report.outcomes] == [f"temp/{t:.0f}C" for t in temps]
        assert report.results == [o.payload for o in report.outcomes]

    def test_hit_rate_accounts_every_query(self, tmp_path):
        client = LocalClient(ExperimentRunner(cache=ResultCache(tmp_path)))
        client.sweep([_temp_query(40.0)])
        report = client.sweep([_temp_query(40.0), _temp_query(50.0), _temp_query(60.0)])
        assert report.cache_hits + report.cache_misses == len(report.outcomes) == 3
        assert report.hit_rate == pytest.approx(1 / 3)

    def test_failed_cell_is_reported_not_raised(self):
        client = LocalClient(ExperimentRunner(faults="raise@1"))
        report = client.sweep([_temp_query(t) for t in (40.0, 50.0, 60.0)])
        assert [p is not None for p in report.results] == [True, False, True]
        assert [o.label for o in report.failures] == ["temp/50C"]
        assert report.failures[0].error.kind == "exception"
        assert report.notes()["runner failures"].startswith("1/3 cells failed")

    def test_interrupt_propagates_after_flushing_manifest(self, tmp_path):
        client = LocalClient(ExperimentRunner(runs_dir=tmp_path, faults="interrupt@1"))
        with pytest.raises(KeyboardInterrupt):
            client.sweep([_temp_query(t) for t in (40.0, 50.0, 60.0)],
                         experiment="ctrl-c")
        manifest = load_manifest(latest_manifest(tmp_path))
        assert manifest["experiment"] == "ctrl-c"
        assert manifest["status"] == "interrupted"
        assert [c["label"] for c in manifest["cells"]] == ["temp/40C"]

    def test_sweep_writes_the_experiment_manifest(self, tmp_path):
        client = LocalClient(ExperimentRunner(runs_dir=tmp_path))
        report = client.sweep([_temp_query()], experiment="plain")
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

    def test_context_manager_leaves_client_usable(self):
        client = LocalClient()
        with client as entered:
            assert entered is client
        assert client.sweep([_temp_query()]).results[0] is not None


class TestDriverClient:
    def test_explicit_client_is_returned_as_is(self):
        client = LocalClient()
        assert driver_client(client=client) is client

    def test_bare_runner_is_wrapped(self):
        runner = ExperimentRunner(jobs=2)
        assert driver_client(runner=runner).runner is runner

    def test_neither_builds_serial_uncached_default(self):
        client = driver_client()
        assert isinstance(client, LocalClient)
        assert client.runner.jobs == 1 and client.runner.cache is None

    def test_client_and_runner_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            driver_client(client=LocalClient(), runner=ExperimentRunner())
