"""What a run leaves on disk: its manifest and its result CSVs.

* A manifest is created exclusively: two runs that share a start stamp
  get ``<stamp>.json`` and ``<stamp>-1.json``, a missing runs dir is
  created, and no existing file is ever overwritten.  Its ``cache``
  block counts the corrupt entries the run discarded.
* A results CSV holds results: the runner telemetry goes to stdout,
  ``result.notes`` and the manifest, not the CSV, so a warm re-run
  renders the same bytes and leaves the file untouched.
"""

import importlib.util
import json
import os
import threading
from pathlib import Path

import pytest

from repro.experiments import ExperimentResult
from repro.experiments.cli import main, run_experiment
from repro.runner import (
    ExperimentRunner,
    ResultCache,
    latest_manifest,
    load_manifest,
)
from repro.runner.manifest import run_stamp, write_manifest

STARTED = "2026-08-06T12:00:00.123456+00:00"
STAMP = run_stamp(STARTED)

#: The end-to-end benchmark's output gate (committed CSV row digests).
E2E_OUTPUTS = Path(__file__).parents[1] / "benchmarks" / "e2e" / "outputs.py"

#: A modification time no run could stamp (2001-09-09).
OLD_NS = 1_000_000_000 * 10**9


def _record(**extra):
    return {"experiment": "x", "started_at": STARTED, **extra}


class TestManifestCreate:
    def test_same_stamp_gets_a_numbered_sibling(self, tmp_path):
        first = write_manifest(tmp_path, _record(n=1))
        second = write_manifest(tmp_path, _record(n=2))
        third = write_manifest(tmp_path, _record(n=3))
        assert [p.name for p in (first, second, third)] == [
            f"{STAMP}.json", f"{STAMP}-1.json", f"{STAMP}-2.json",
        ]
        assert [load_manifest(p)["n"] for p in (first, second, third)] == [1, 2, 3]

    def test_missing_runs_dir_is_created(self, tmp_path):
        runs = tmp_path / "a" / "b" / "runs"
        path = write_manifest(runs, _record())
        assert path == runs / f"{STAMP}.json"
        assert load_manifest(path)["experiment"] == "x"

    def test_existing_files_are_never_overwritten(self, tmp_path):
        taken = {
            tmp_path / f"{STAMP}.json": b"not a manifest",
            tmp_path / f"{STAMP}-1.json": b"{}",
        }
        for path, data in taken.items():
            path.write_bytes(data)
        path = write_manifest(tmp_path, _record())
        assert path.name == f"{STAMP}-2.json"
        for taken_path, data in taken.items():
            assert taken_path.read_bytes() == data

    def test_racing_writers_each_get_their_own_file(self, tmp_path):
        paths = []
        barrier = threading.Barrier(4)

        def write(n):
            barrier.wait()
            paths.append(write_manifest(tmp_path, _record(n=n)))

        threads = [threading.Thread(target=write, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(paths)) == 4
        assert sorted(load_manifest(p)["n"] for p in paths) == [0, 1, 2, 3]


class TestDiscardedEntries:
    def test_a_corrupt_entry_shows_up_in_the_manifest(self, tmp_path):
        argv = [
            "fig4", "--duration", "0.02", "--benchmarks", "blackscholes",
            "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(tmp_path / "runs"),
        ]
        assert main(argv) == 0
        cold = load_manifest(latest_manifest(tmp_path / "runs"))
        assert cold["cache"]["discarded"] == 0
        victim = cold["cells"][1]["key"]
        ResultCache(tmp_path / "cache").path_for(victim).write_bytes(b'{"schema": 1, "ke')

        assert main(argv) == 0
        healed = load_manifest(latest_manifest(tmp_path / "runs"))
        assert healed["cache"]["discarded"] == 1
        assert healed["cache"]["misses"] == 1
        assert [c["key"] for c in healed["cells"] if not c["cache_hit"]] == [victim]

        assert main(argv) == 0
        warm = load_manifest(latest_manifest(tmp_path / "runs"))
        assert warm["cache"]["discarded"] == 0 and warm["cache"]["misses"] == 0

    def test_counter_counts_each_discard(self, tmp_path):
        cache = ResultCache(tmp_path)
        for key, data in (("a" * 64, b"junk"), ("b" * 64, json.dumps([1]).encode())):
            cache.path_for(key).write_bytes(data)
            assert cache.get(key) is None
        assert cache.get("c" * 64) is None  # a plain miss is not a discard
        assert cache.discarded == 2
        assert ExperimentRunner(cache=cache).run([]).cache_discarded == 0


class TestResultCsv:
    @pytest.fixture
    def result(self):
        return ExperimentResult(
            "X", "demo", ["a", "b"], [(1, 2.5)], {"finding": "42%"}
        ).merge_notes({"runner": "1 cells, 0.01s wall", "finding": "ignored"})

    def test_telemetry_stays_in_notes_not_in_csv(self, result, tmp_path):
        path = tmp_path / "x.csv"
        result.to_csv(path)
        assert path.read_text().splitlines() == [
            "# X: demo", "# finding: 42%", "a,b", "1,2.5",
        ]
        assert result.notes == {"finding": "42%", "runner": "1 cells, 0.01s wall"}
        assert "runner: 1 cells" in result.format()

    def test_unchanged_bytes_leave_the_file_untouched(self, result, tmp_path):
        path = tmp_path / "x.csv"
        result.to_csv(path)
        os.utime(path, ns=(OLD_NS, OLD_NS))
        before = path.stat()
        result.to_csv(path)
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, OLD_NS)

    @pytest.mark.parametrize("stale", [b"", b"# X: demo\n", b"junk\xff\n" * 3])
    def test_other_bytes_are_rewritten(self, result, tmp_path, stale):
        path = tmp_path / "x.csv"
        result.to_csv(tmp_path / "want.csv")
        path.write_bytes(stale)
        result.to_csv(path)
        assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_changed_rows_rewrite_the_file(self, result, tmp_path):
        path = tmp_path / "x.csv"
        result.to_csv(path)
        os.utime(path, ns=(OLD_NS, OLD_NS))
        result.rows[0] = (1, 3.5)
        result.to_csv(path)
        assert path.stat().st_mtime_ns != OLD_NS
        assert path.read_text().splitlines()[-1] == "1,3.5"


class TestWarmCliCsv:
    """Two warm ``vrl-dram fig4 --csv D`` runs leave ``D/fig4.csv`` alone."""

    def _run(self, tmp_path, capsys):
        assert main([
            "fig4", "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(tmp_path / "runs"), "--csv", str(tmp_path / "csv"),
        ]) == 0
        return capsys.readouterr().out

    def test_warm_runs_leave_the_csv_untouched(self, tmp_path, capsys):
        csv_path = tmp_path / "csv" / "fig4.csv"
        self._run(tmp_path, capsys)
        cold = csv_path.read_bytes()
        out = self._run(tmp_path, capsys)
        assert "39 cached / 0 computed" in out
        assert "runner manifest: " in out
        os.utime(csv_path, ns=(OLD_NS, OLD_NS))
        before = csv_path.stat()
        self._run(tmp_path, capsys)
        after = csv_path.stat()
        assert csv_path.read_bytes() == cold
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert not any(line.startswith("# runner") for line in cold.decode().splitlines())

        # The rows are those the end-to-end benchmark pins at seed 2018.
        spec = importlib.util.spec_from_file_location("e2e_outputs", E2E_OUTPUTS)
        outputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(outputs)
        got = outputs.digest(csv_path)
        assert outputs.problem("fig4", 2018, got, outputs.load_expected()) is None

    def test_runner_notes_reach_result_notes(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        result = run_experiment(
            "fig4", runner=runner, duration=0.02, benchmarks=["blackscholes"]
        )
        assert result.notes["runner"].startswith("3 cells")
        result.to_csv(tmp_path / "fig4.csv")
        assert "# runner" not in (tmp_path / "fig4.csv").read_text()
