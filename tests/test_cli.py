"""Tests for the vrl-dram command-line interface."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.cli import build_parser, default_cache_dir, main
from repro.runner import Cell, latest_manifest, load_manifest
from repro.service import LocalClient
from repro.technology import DEFAULT_TECH
from tests.fault_injection import Strike, inject
from tests.test_pricing_memo import forget_pricing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The sweep verbs, each with the label of the second cell it computes
#: at defaults (an interrupt there leaves one finished cell behind).
SWEEP_SECOND_CELLS = {
    "fig4": "raidr/bodytrack",
    "performance": "raidr/swaptions",
    "rank": "rank/fixed",
    "baselines": "baseline/fgr-2x",
    "mechanisms": "matrix/raidr/blackscholes/45C/8192r",
    "temperature": "temp/55C",
    "calibrate": "calibrate/0.90x16",
}


@pytest.fixture(autouse=True)
def _hermetic_cli(tmp_path, monkeypatch):
    """Keep CLI side effects (cache, run manifests) inside tmp_path."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("VRL_DRAM_CACHE", str(tmp_path / "cache"))


class TestParser:
    def test_experiment_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.duration == 1.0
        assert args.nbits == 2
        assert args.seed == 2018
        assert args.spice is True

    def test_no_spice_flag(self):
        args = build_parser().parse_args(["table1", "--no-spice"])
        assert args.spice is False

    def test_benchmark_list(self):
        args = build_parser().parse_args(["fig4", "--benchmarks", "canneal", "bgsave"])
        assert args.benchmarks == ["canneal", "bgsave"]

    def test_all_is_valid(self):
        assert build_parser().parse_args(["all"]).experiment == "all"

    def test_runner_flag_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.no_cache is False
        assert args.runs_dir == "runs"

    def test_runner_flags_parse(self):
        args = build_parser().parse_args(
            ["fig4", "--jobs", "4", "--cache-dir", "/tmp/c", "--no-cache",
             "--runs-dir", "/tmp/r"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache is True
        assert args.runs_dir == "/tmp/r"

    def test_parser_is_built_once_per_mechanism_set(self, monkeypatch):
        from repro.controller import MECHANISMS

        assert build_parser() is build_parser()
        before = build_parser()
        monkeypatch.setattr(MECHANISMS, "_infos", dict(MECHANISMS._infos))
        MECHANISMS.register("x", lambda **kwargs: None, description="test")
        parser = build_parser()
        assert parser is not before
        action = next(a for a in parser._actions if a.dest == "mechanisms")
        assert "x" in action.help.split("registered: ")[1].rstrip(")").split(", ")
        monkeypatch.undo()  # the registry without "x" again
        assert build_parser() is before

    def test_default_cache_dir_honours_env(self, monkeypatch):
        monkeypatch.setenv("VRL_DRAM_CACHE", "/tmp/elsewhere")
        assert default_cache_dir() == Path("/tmp/elsewhere")

    @pytest.mark.parametrize(
        "argv, token",
        [
            (["serve"], "serve"),
            (["fig4", "--connect", "127.0.0.1:8765"], "--connect"),
            (["fig4", "--host", "127.0.0.1"], "--host"),
            (["fig4", "--port", "8765"], "--port"),
            (["fig4", "--batch-window", "0.01"], "--batch-window"),
            (["fig4", "--drain-timeout", "5"], "--drain-timeout"),
        ],
        ids=["serve", "connect", "host", "port", "batch-window", "drain-timeout"],
    )
    def test_serving_verb_and_flags_are_gone(self, argv, token, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert token in capsys.readouterr().err


class TestMain:
    def test_table2_runs(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "TAB2" in out
        assert "nbits" in out

    def test_fig3_runs(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "FIG3" in out
        assert "64 ms bin" in out

    def test_sec31_runs(self, capsys):
        assert main(["sec31"]) == 0
        out = capsys.readouterr().out
        assert "tau_partial" in out

    def test_fig4_small_run(self, capsys):
        code = main(["fig4", "--duration", "0.4", "--benchmarks", "swaptions"])
        assert code == 0
        out = capsys.readouterr().out
        assert "swaptions" in out
        assert "VRL reduction vs RAIDR" in out


class TestExtensionWiring:
    """Every extension CLI entry parses and (for the cheap ones) runs."""

    def test_all_extension_names_registered(self):
        parser = build_parser()
        for name in (
            "validate",
            "rank",
            "temperature",
            "performance",
            "ablation-nbits",
            "ablation-guard",
            "ablation-bins",
            "ablation-geometry",
            "sensitivity",
        ):
            assert parser.parse_args([name]).experiment == name

    def test_temperature_runs(self, capsys):
        assert main(["temperature"]) == 0
        assert "TEMP" in capsys.readouterr().out

    def test_bins_runs(self, capsys):
        assert main(["ablation-bins"]) == 0
        assert "ABL-BINS" in capsys.readouterr().out


class TestRunnerFlags:
    """--jobs / --cache-dir / --no-cache drive the sweep experiments."""

    FIG4 = ["fig4", "--duration", "0.05", "--benchmarks", "swaptions", "canneal"]

    def test_negative_jobs_rejected(self, capsys):
        assert main(self.FIG4 + ["--jobs", "-1"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_parallel_output_identical_to_serial(self, tmp_path, capsys):
        assert main(self.FIG4 + ["--no-cache", "--runs-dir", ""]) == 0
        serial = capsys.readouterr().out
        forget_pricing()  # forked workers would inherit the serial pricing
        assert main(self.FIG4 + ["--jobs", "2", "--no-cache", "--runs-dir", ""]) == 0
        parallel = capsys.readouterr().out
        # Everything except the runner telemetry lines must match exactly.
        def strip(out):
            return [
                line for line in out.splitlines()
                if not line.startswith(("runner", "[fig4 completed"))
            ]

        assert strip(serial) == strip(parallel)

    def test_manifest_written_and_cache_warms(self, tmp_path, capsys):
        cache = tmp_path / "cli-cache"
        runs = tmp_path / "cli-runs"
        flags = ["--cache-dir", str(cache), "--runs-dir", str(runs)]
        assert main(self.FIG4 + flags) == 0
        cold = load_manifest(latest_manifest(runs))
        assert cold["cache"]["misses"] == 6
        assert cold["experiment"] == "fig4"
        capsys.readouterr()

        assert main(self.FIG4 + flags) == 0
        warm = load_manifest(latest_manifest(runs))
        assert warm["cache"]["hit_rate"] > 0.9
        assert warm["elapsed_seconds"] < cold["elapsed_seconds"]
        assert "runner" in capsys.readouterr().out

    def test_no_cache_never_writes(self, tmp_path, capsys):
        cache = tmp_path / "untouched"
        args = self.FIG4 + ["--cache-dir", str(cache), "--no-cache", "--runs-dir", ""]
        assert main(args) == 0
        assert not cache.exists()

    def test_runs_dir_default_and_disable(self, capsys):
        assert main(["temperature", "--runs-dir", ""]) == 0
        assert not Path("runs").exists()
        assert main(["temperature"]) == 0
        manifest = load_manifest(latest_manifest("runs"))
        assert manifest["experiment"] == "temperature"
        assert [cell["kind"] for cell in manifest["cells"]] == [
            "temperature-point"
        ] * 5


class TestFaultToleranceFlags:
    """--retries / --cell-timeout / --resume validation and wiring."""

    FIG4 = ["fig4", "--duration", "0.05", "--benchmarks", "swaptions", "canneal"]

    def test_fault_flag_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.retries == 0
        assert args.cell_timeout is None
        assert args.resume is None

    def test_negative_retries_rejected(self, capsys):
        assert main(self.FIG4 + ["--retries", "-2"]) == 2
        err = capsys.readouterr().err
        assert "--retries" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
    def test_nonpositive_cell_timeout_rejected(self, value, capsys):
        assert main(self.FIG4 + ["--cell-timeout", value]) == 2
        err = capsys.readouterr().err
        assert "--cell-timeout" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--duration", "nan"),
            ("--duration", "inf"),
            ("--duration", "-1"),
            ("--duration", "0"),
            ("--nbits", "0"),
            ("--nbits", "-3"),
            ("--nbits", "63"),
        ],
    )
    def test_nonsensical_value_rejected_in_one_line(self, flag, value, capsys):
        """NaN, infinite or non-positive horizons, and counters under one
        bit or wider than int64 holds, exit 2 with one ``error:`` line
        before any cell runs."""
        argv = ["fig4", "--benchmarks", "swaptions", "--jobs", "2", flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("value", ["-1", "-2018"])
    def test_negative_seed_rejected_in_one_line(self, value, capsys):
        """A seed numpy cannot take exits 2 naming the flag, not 0 with
        every cell failed on numpy's own message."""
        argv = ["fig4", "--seed", value, "--duration", "0.01", "--benchmarks",
                "swaptions", "--no-cache", "--runs-dir", ""]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --seed must be >= 0, got {int(value)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["1e30", "1e11"])
    def test_duration_past_int64_cycles_rejected_in_one_line(self, value, capsys):
        """A horizon whose controller-cycle count passes int64 exits 2
        with the bound every timed cell enforces, not a traceback from
        ``Cell.of``."""
        argv = ["fig4", "--duration", value, "--no-cache", "--runs-dir", ""]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --duration {float(value)!r} s is ")
        assert err.rstrip().endswith("controller cycles, more than int64 holds")
        assert len(err.strip().splitlines()) == 1

    def test_wide_counter_sweep_completes(self, capsys):
        """MPRSF stops at the survivors' fixed point, so a 40-bit counter
        costs about what a 4-bit one does instead of 2^40 rounds."""
        argv = ["fig4", "--duration", "0.01", "--benchmarks", "swaptions",
                "--no-cache", "--runs-dir", ""]
        assert main(argv + ["--nbits", "40"]) == 0
        assert "runner failures" not in capsys.readouterr().out

    def test_missing_resume_manifest_rejected(self, tmp_path, capsys):
        assert main(self.FIG4 + ["--resume", str(tmp_path / "gone.json")]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err and len(err.strip().splitlines()) == 1

    def test_chaos_run_reports_failures_and_completes(self, tmp_path, capsys):
        runs = tmp_path / "chaos-runs"
        args = self.FIG4 + ["--no-cache", "--runs-dir", str(runs)]
        with inject(tmp_path / "markers", Strike("raise", "raidr/swaptions")):
            assert main(args) == 0  # the sweep completes despite the fault
        out = capsys.readouterr().out
        assert "runner failures" in out
        assert "benchmarks dropped (failed cells): swaptions" in out
        manifest = load_manifest(latest_manifest(runs))
        assert manifest["status"] == "complete"
        assert len(manifest["failures"]) == 1

    def test_chaos_with_retries_matches_clean_run(self, tmp_path, capsys):
        clean_args = self.FIG4 + ["--no-cache", "--runs-dir", ""]
        assert main(clean_args) == 0
        clean = capsys.readouterr().out
        with inject(tmp_path / "markers", Strike("raise", "vrl/canneal")):
            assert main(clean_args + ["--retries", "1"]) == 0
        assert len(list((tmp_path / "markers").iterdir())) == 2  # struck, retried
        chaotic = capsys.readouterr().out
        def strip(out):
            return [
                line for line in out.splitlines()
                if not line.startswith(("runner", "[fig4 completed"))
            ]

        assert strip(clean) == strip(chaotic)


def _cli_env() -> dict:
    """Environment for a child ``python -m repro.experiments.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT), env.get("PYTHONPATH", "")])
    return env


def _default_sigint() -> None:
    # A child inherits an ignored SIGINT from a background parent, and
    # Python only maps SIGINT to KeyboardInterrupt when it starts at the
    # default disposition.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _wait_for_checkpoint_line(runs: Path, proc: subprocess.Popen) -> None:
    """Block until the sweep's checkpoint holds one completed cell."""
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        assert proc.poll() is None, "sweep exited before it was signalled"
        lines = [
            line
            for path in runs.glob("*.checkpoint.jsonl")
            for line in path.read_text().splitlines()
        ]
        if lines:
            return
        time.sleep(0.05)
    raise AssertionError("no checkpoint line within 120 s")


class TestInterruptContract:
    """Ctrl-C and SIGTERM stop a sweep where it is, leave an
    ``"interrupted"`` manifest and a resume hint, and exit 130."""

    SWEEP = ["temperature", "--jobs", "1", "--no-cache"]

    @pytest.mark.parametrize("verb", SWEEP_SECOND_CELLS)
    def test_interrupt_inside_cell_exits_130_with_resume_hint(
        self, verb, tmp_path, capsys
    ):
        runs = tmp_path / "runs"
        argv = [verb, "--jobs", "1", "--no-cache", "--runs-dir", str(runs)]
        strike = Strike("interrupt", SWEEP_SECOND_CELLS[verb])
        with inject(tmp_path / "markers", strike):
            assert main(argv) == 130
        assert "resume with: --resume" in capsys.readouterr().err
        manifest = load_manifest(latest_manifest(runs))
        assert manifest["experiment"] == verb
        assert manifest["status"] == "interrupted"
        assert len(manifest["cells"]) == 1  # the cell before the interrupt

    @pytest.mark.parametrize(
        "signum", [signal.SIGTERM, signal.SIGINT], ids=["sigterm", "sigint"]
    )
    def test_signal_mid_sweep_flushes_then_resumes(self, signum, tmp_path):
        runs = tmp_path / "runs"
        argv = self.SWEEP + ["--runs-dir", str(runs)]
        hang = [str(tmp_path / "markers"), "hang", SWEEP_SECOND_CELLS["temperature"], "60"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "tests.fault_cli", *hang, "--", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_cli_env(),
            cwd=tmp_path,
            preexec_fn=_default_sigint,
        )
        try:
            _wait_for_checkpoint_line(runs, proc)
            proc.send_signal(signum)
            _, err = proc.communicate(timeout=10)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, err
        assert "resume with: --resume" in err
        interrupted = latest_manifest(runs)
        manifest = load_manifest(interrupted)
        assert manifest["status"] == "interrupted"
        assert len(manifest["cells"]) == 1

        resumed = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", *argv,
             "--resume", str(interrupted)],
            capture_output=True,
            text=True,
            env=_cli_env(),
            cwd=tmp_path,
            timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr
        final = load_manifest(latest_manifest(runs))
        assert final["status"] == "complete"
        assert (final["cache"]["hits"], final["cache"]["misses"]) == (1, 4)


class TestSweepHygiene:
    def test_cli_import_leaves_asyncio_unloaded(self):
        code = "import sys, repro.experiments.cli; print('asyncio' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=_cli_env(),
            check=True,
        ).stdout
        assert out.strip() == "False"

    def test_local_client_sweep_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"sweep started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cell = Cell.of("temperature-point", tech=DEFAULT_TECH, rows=64,
                       cols=8, temperature=45.0, seed=7)
        report = LocalClient().sweep([cell])
        assert report.results[0] is not None


_IMPORT_GRAPH_PROBE = """
import contextlib, io, json, sys
import repro.experiments.cli as cli
at_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
before = set(sys.modules)
for argv in (
    ["ablation-guard"],
    ["mechanisms"],
    ["fig4", "--duration", "0.02", "--benchmarks", "blackscholes"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv + ["--jobs", "1", "--no-cache", "--runs-dir", ""])
    assert rc == 0, (argv, rc)
print(json.dumps({"at_import": at_import, "loaded": sorted(set(sys.modules) - before)}))
"""


_CIRCUIT_VERB_PROBE = """
import contextlib, io, json, sys
import repro.experiments.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["fig5", "--no-cache", "--runs-dir", ""])
assert rc == 0, rc
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


_SERIAL_POOL_PROBE = """
import contextlib, io, sys
import repro.experiments.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["fig4", "--duration", "0.02", "--benchmarks", "blackscholes",
                   "--jobs", "1", "--no-cache", "--runs-dir", ""])
assert rc == 0, rc
print("multiprocessing" in sys.modules)
"""


class TestImportGraph:
    """The CLI's import graph is SciPy-free (invariant 16); no timing asserted."""

    def test_circuit_verb_loads_the_lapack_wrappers_only(self, tmp_path):
        # fig5 is the cheapest verb that solves circuits: its solves load
        # SciPy's compiled LAPACK wrappers and never the scipy.linalg
        # package (~0.23 s and ~22 MB of RSS more).
        out = subprocess.run(
            [sys.executable, "-c", _CIRCUIT_VERB_PROBE],
            capture_output=True,
            text=True,
            env=_cli_env(),
            cwd=tmp_path,
            check=True,
        ).stdout
        loaded = json.loads(out.splitlines()[-1])
        assert "scipy.linalg._flapack" in loaded
        assert "scipy.linalg" not in loaded

    def test_serial_sweep_loads_no_multiprocessing(self, tmp_path):
        # A --jobs 1 sweep computes inline and never creates the process
        # pool, so it never pays for importing multiprocessing.
        out = subprocess.run(
            [sys.executable, "-c", _SERIAL_POOL_PROBE],
            capture_output=True,
            text=True,
            env=_cli_env(),
            cwd=tmp_path,
            check=True,
        ).stdout
        assert out.splitlines()[-1] == "False"

    def test_cli_and_scipy_free_verbs_load_no_scipy(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_GRAPH_PROBE],
            capture_output=True,
            text=True,
            env=_cli_env(),
            cwd=tmp_path,
            check=True,
        ).stdout
        graph = json.loads(out.splitlines()[-1])
        assert graph["at_import"] == []
        late = [
            m for m in graph["loaded"] if m.split(".")[0] in ("scipy", "repro")
        ]
        assert late == [], f"verbs imported {len(late)} modules after start-up: {late[:5]}"
