"""Executor equivalence and observability: parallel ≡ serial, manifests.

The acceptance bar of the runner subsystem: ``--jobs N`` must be a pure
performance knob (identical numbers), a warm cache must serve >90% of
an unchanged sweep and finish measurably faster, and every run must
leave an accurate ``runs/<timestamp>.json`` manifest behind.
"""

import pytest

from repro.experiments import (
    run_baseline_comparison,
    run_fig4,
    run_rank_comparison,
    run_temperature_study,
)
from repro.runner import (
    Cell,
    ExperimentRunner,
    ResultCache,
    latest_manifest,
    load_manifest,
    tech_params,
)
from repro.runner.cells import _trace
from repro.runner.manifest import run_stamp
from repro.technology import BankGeometry, DEFAULT_TECH

GEO = BankGeometry(256, 16)
BENCHES = ["swaptions", "canneal"]


def _fig4(**kwargs):
    return run_fig4(
        geometry=GEO, duration_seconds=0.1, benchmarks=BENCHES, **kwargs
    )


class TestParallelEqualsSerial:
    def test_fig4_rows_identical(self):
        serial = _fig4()
        parallel = _fig4(runner=ExperimentRunner(jobs=3))
        assert parallel.rows == serial.rows
        assert parallel.headers == serial.headers

    def test_cached_rerun_identical(self, tmp_path):
        cold = _fig4(runner=ExperimentRunner(jobs=2, cache=ResultCache(tmp_path)))
        warm = _fig4(runner=ExperimentRunner(jobs=2, cache=ResultCache(tmp_path)))
        assert warm.rows == cold.rows == _fig4().rows

    def test_rank_study_identical(self, tmp_path):
        serial = run_rank_comparison(duration_seconds=0.2)
        parallel = run_rank_comparison(
            duration_seconds=0.2,
            runner=ExperimentRunner(jobs=2, cache=ResultCache(tmp_path)),
        )
        assert parallel.rows == serial.rows

    def test_baselines_identical(self, tmp_path):
        serial = run_baseline_comparison(geometry=GEO, duration_seconds=0.2)
        parallel = run_baseline_comparison(
            geometry=GEO,
            duration_seconds=0.2,
            runner=ExperimentRunner(jobs=2, cache=ResultCache(tmp_path)),
        )
        assert parallel.rows == serial.rows

    def test_temperature_identical(self, tmp_path):
        serial = run_temperature_study(geometry=GEO)
        parallel = run_temperature_study(
            geometry=GEO, runner=ExperimentRunner(jobs=2, cache=ResultCache(tmp_path))
        )
        assert parallel.rows == serial.rows


class TestWarmCache:
    def test_hit_rate_and_speed(self, tmp_path):
        cache_dir, runs = tmp_path / "cache", tmp_path / "runs"
        cold_runner = ExperimentRunner(jobs=2, cache=ResultCache(cache_dir), runs_dir=runs)
        _fig4(runner=cold_runner)
        cold = load_manifest(latest_manifest(runs))
        assert cold["cache"]["hit_rate"] == 0.0

        warm_runner = ExperimentRunner(jobs=2, cache=ResultCache(cache_dir), runs_dir=runs)
        _fig4(runner=warm_runner)
        warm = load_manifest(latest_manifest(runs))
        assert warm["cache"]["hit_rate"] > 0.9
        assert warm["cache"]["misses"] == 0
        assert warm["elapsed_seconds"] < cold["elapsed_seconds"]

    def test_partial_invalidation_only_recomputes_changed_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fig4(runner=ExperimentRunner(cache=cache))
        report_notes = _fig4(
        runner=ExperimentRunner(cache=cache), nbits=3
        ).notes["runner"]
        # nbits feeds every policy cell's key, including raidr's, so the
        # whole grid recomputes; a seed-only fig4 change behaves the same.
        assert "6 computed" in report_notes
        rerun = _fig4(runner=ExperimentRunner(cache=cache))
        assert "6 cached" in rerun.notes["runner"]


class TestManifest:
    def test_contents(self, tmp_path):
        runner = ExperimentRunner(
            jobs=2, cache=ResultCache(tmp_path / "c"), runs_dir=tmp_path / "r"
        )
        result = _fig4(runner=runner)
        manifest = load_manifest(latest_manifest(tmp_path / "r"))
        assert manifest["experiment"] == "fig4"
        assert manifest["jobs"] == 2
        assert len(manifest["cells"]) == 6
        for cell in manifest["cells"]:
            assert cell["kind"] == "refresh-overhead"
            assert cell["wall_seconds"] >= 0
            assert len(cell["key"]) == 64
            assert cell["cache_hit"] is False
        assert 0 <= manifest["workers"]["utilization"] <= 1
        assert manifest["workers"]["busy_seconds"] > 0
        # The cache dir must be recorded even on a cold (empty, hence
        # falsy — ResultCache defines __len__) cache.
        assert manifest["cache"]["dir"] == str(tmp_path / "c")
        # observability also lands in the result notes
        assert "runner" in result.notes
        assert "runner manifest" in result.notes

    def test_manifests_do_not_collide(self, tmp_path):
        runner = ExperimentRunner(runs_dir=tmp_path)
        cell = _temperature_cell()
        paths = {runner.run([cell]).manifest_path for _ in range(3)}
        assert len(paths) == 3


    def test_manifest_and_checkpoint_share_the_start_stamp(self, tmp_path):
        report = ExperimentRunner(runs_dir=tmp_path).run([_temperature_cell()])
        assert report.checkpoint_path.name.endswith(".checkpoint.jsonl")
        stem = report.checkpoint_path.name[: -len(".checkpoint.jsonl")]
        assert report.manifest_path.name == f"{stem}.json"
        assert stem == run_stamp(load_manifest(report.manifest_path)["started_at"])

    def test_latest_manifest_is_the_later_run(self, tmp_path):
        runner = ExperimentRunner(runs_dir=tmp_path)
        first = runner.run([_temperature_cell()], "first")
        second = runner.run([_temperature_cell()], "second")
        assert first.manifest_path != second.manifest_path
        assert latest_manifest(tmp_path) == second.manifest_path
        assert load_manifest(latest_manifest(tmp_path))["experiment"] == "second"


def _temperature_cell() -> Cell:
    return Cell(
        "temperature-point",
        {"tech": tech_params(DEFAULT_TECH), "rows": 64, "cols": 8,
         "temperature": 55.0, "seed": 11},
    )


class TestRunnerValidation:
    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentRunner(jobs=-1)

    def test_jobs_zero_means_cpu_count(self):
        assert ExperimentRunner(jobs=0).jobs >= 1

    def test_unknown_cell_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown cell kind"):
            Cell("no-such-kind", {})

    def test_empty_cell_list(self, tmp_path):
        report = ExperimentRunner(runs_dir=tmp_path).run([], experiment="noop")
        assert report.results == []
        assert report.hit_rate == 0.0
        assert load_manifest(report.manifest_path)["cells"] == []


class TestSharedBuilds:
    def test_traces_built_once_per_process(self):
        """Only the cells whose pricing reads a trace ask the memo for
        one (VRL-Access, one per workload), each workload is built at
        most once, and the memo keeps at most one trace alive."""
        before = _trace.cache_info()
        _fig4()  # serial: 3 policies x 2 benchmarks in this process
        after = _trace.cache_info()
        new_calls = (after.hits + after.misses) - (before.hits + before.misses)
        new_misses = after.misses - before.misses
        assert new_calls == 2
        assert new_misses <= 2  # at most one build per workload
        assert after.currsize <= 1
