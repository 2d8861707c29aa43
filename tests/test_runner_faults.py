"""Fault tolerance: one bad cell never costs the sweep.

The acceptance bar of the robustness layer (exercised by wrapping the
runner's ``compute_cell`` with the strikes of ``tests/fault_injection.py``):

1. a sweep with one raising cell out of N completes the other N-1
   payloads, writes them to cache, and records the failure —
   structured — in the run manifest;
2. retries with backoff make a transiently failing cell's sweep
   bit-identical to a fault-free run, including when the failure is a
   SIGKILLed worker (pool respawn) or a hung worker (watchdog reap);
3. Ctrl-C mid-sweep flushes an ``"interrupted"`` manifest whose
   checkpoint a ``resume_from=`` run replays, recomputing only the
   unfinished cells (verified via the hit/miss counters);
4. a solver ``ConvergenceError`` thrown deep inside a cell's circuit
   surfaces as a failed outcome with the solver's message intact, and
   so does a failure inside the fused refresh timeline — there is no
   other pricing path to replay the cell on.
"""

import itertools
import json
import os

import pytest

from repro.circuit.netlist import Circuit, Element
from repro.circuit.solver import MAX_SUBDIVISIONS, ConvergenceError
from repro.runner import (
    Cell,
    CellError,
    ExperimentRunner,
    ResultCache,
    latest_manifest,
    load_checkpoint,
    load_manifest,
    tech_params,
)
from repro.runner.cells import CELL_KINDS, CellKind
from repro.technology import DEFAULT_TECH
from tests.fault_injection import (
    DivergentSource,
    Strike,
    StrikeRefused,
    inject,
    run_divergent_circuit,
)
from tests.reference_assembler import reference_session

TECH = tech_params(DEFAULT_TECH)

#: Snappy retry backoff for tests.
FAST = {"backoff_seconds": 0.01}


def _cell(i: int) -> Cell:
    """A small, fast, deterministic refresh-only sweep cell."""
    return Cell(
        "refresh-overhead",
        {
            "tech": TECH,
            "rows": 64,
            "cols": 8,
            "policy": "vrl",
            "nbits": 2,
            "benchmark": None,
            "seed": 100 + i,
            "duration_seconds": 0.1,
        },
        label=f"cell{i}",
    )


CELLS = [_cell(i) for i in range(6)]


def _rank_cell(mode: str) -> Cell:
    """A small refresh-only rank cell (always priced by the fused path)."""
    return Cell(
        "rank-mode",
        {
            "tech": TECH,
            "rows": 64,
            "cols": 8,
            "n_banks": 2,
            "mode": mode,
            "seed": 100,
            "duration_seconds": 0.1,
        },
        label=f"rank-{mode}",
    )


@pytest.fixture(scope="module")
def baseline():
    """Payloads of a fault-free serial run (the equivalence reference)."""
    return ExperimentRunner().run(CELLS, "faults-ref").results


def _strike(tmp_path, action, label, **kwargs):
    """Arm one strike on a cell of :data:`CELLS` (or a kind-labelled cell)."""
    return inject(tmp_path / "markers", Strike(action, label, **kwargs), cells=CELLS)


class TestCellErrorTaxonomy:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CellError(kind="cosmic-ray")

    def test_from_exception_captures_type_message_traceback(self):
        try:
            raise ConvergenceError("Newton failed at t=1e-9s")
        except ConvergenceError as exc:
            error = CellError.from_exception(exc, label="c0", attempts=2)
        assert error.kind == "exception"
        assert error.exception_type == "ConvergenceError"
        assert "Newton failed" in error.message
        assert "ConvergenceError" in error.traceback
        assert error.attempts == 2

    def test_dict_roundtrip(self):
        error = CellError(
            kind="timeout", label="c3", key="ab" * 32, message="too slow", attempts=3
        )
        assert CellError(**json.loads(json.dumps(error.to_dict()))) == error

    def test_summary_is_one_line(self):
        error = CellError(
            kind="worker-crash", label="vrl/canneal", message="OOM\nkilled"
        )
        assert "\n" not in error.summary()
        assert "vrl/canneal" in error.summary()


class TestFailureIsolation:
    """Satellite: a worker exception loses one cell, never the sweep."""

    def test_one_raising_cell_completes_the_rest(self, baseline, tmp_path):
        with _strike(tmp_path, "raise", "cell2"):
            report = ExperimentRunner(
                runs_dir=tmp_path, cache=ResultCache(tmp_path / "c")
            ).run(CELLS, "chaos")
        assert len(report.outcomes) == len(CELLS)
        assert len(report.failures) == 1
        failed = report.failures[0]
        assert failed.label == "cell2" and failed.payload is None
        assert failed.error.kind == "exception"
        assert failed.error.exception_type == "InjectedFault"
        # The other N-1 payloads match the fault-free run exactly.
        ok = [r for r in report.results if r is not None]
        assert ok == [r for i, r in enumerate(baseline) if i != 2]

    def test_completed_cells_reach_the_cache_despite_failure(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with _strike(tmp_path, "raise", "cell2"):
            ExperimentRunner(cache=cache).run(CELLS, "chaos")
        rerun = ExperimentRunner(cache=cache).run(CELLS, "chaos")
        assert rerun.cache_hits == len(CELLS) - 1
        assert rerun.cache_misses == 1
        assert not rerun.failures

    def test_manifest_lists_the_failure(self, tmp_path):
        with _strike(tmp_path, "raise", "cell0"):
            report = ExperimentRunner(runs_dir=tmp_path).run(CELLS, "chaos")
        manifest = load_manifest(report.manifest_path)
        assert manifest["status"] == "complete"
        assert len(manifest["failures"]) == 1
        failure = manifest["failures"][0]
        assert failure["kind"] == "exception"
        assert failure["exception_type"] == "InjectedFault"
        assert failure["label"] == "cell0"
        assert "injected fault" in failure["message"]
        statuses = [cell["status"] for cell in manifest["cells"]]
        assert statuses.count("failed") == 1 and statuses.count("ok") == 5

    def test_pool_failure_is_isolated_too(self, baseline, tmp_path):
        with _strike(tmp_path, "raise", "cell3"):
            report = ExperimentRunner(jobs=2).run(CELLS, "chaos")
        assert len(report.failures) == 1
        ok = [r for r in report.results if r is not None]
        assert ok == [r for i, r in enumerate(baseline) if i != 3]


class TestRetries:
    def test_retry_recovers_bit_identical(self, baseline, tmp_path):
        with _strike(tmp_path, "raise", "cell2"):
            report = ExperimentRunner(retries=1, **FAST).run(CELLS, "chaos")
        assert not report.failures
        assert report.results == baseline
        assert [o.attempts for o in report.outcomes] == [1, 1, 2, 1, 1, 1]

    def test_pool_retry_recovers_bit_identical(self, baseline, tmp_path):
        with _strike(tmp_path, "raise", "cell1"):
            report = ExperimentRunner(jobs=3, retries=1, **FAST).run(CELLS, "chaos")
        assert not report.failures
        assert report.results == baseline
        assert report.outcomes[1].attempts == 2  # the strike reached a worker

    def test_persistent_fault_exhausts_attempts(self, tmp_path):
        with _strike(tmp_path, "raise", "cell2", every_attempt=True):
            report = ExperimentRunner(retries=2, **FAST).run(CELLS, "chaos")
        assert len(report.failures) == 1
        assert report.failures[0].attempts == 3  # initial try + 2 retries
        assert report.failures[0].error.attempts == 3

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(retries=-1)
        with pytest.raises(ValueError):
            ExperimentRunner(cell_timeout=0)
        with pytest.raises(ValueError):
            ExperimentRunner(backoff_seconds=-0.1)


class TestWorkerCrash:
    """A SIGKILLed worker breaks the pool; the runner respawns and retries."""

    def test_killed_worker_is_retried_bit_identical(self, baseline, tmp_path):
        with _strike(tmp_path, "kill", "cell1"):
            report = ExperimentRunner(jobs=2, retries=1, **FAST).run(CELLS, "chaos")
        assert not report.failures
        assert report.results == baseline
        assert report.outcomes[1].attempts == 2  # the killed attempt counts

    def test_kill_without_retries_is_a_worker_crash_failure(self, baseline, tmp_path):
        with _strike(tmp_path, "kill", "cell0"):
            report = ExperimentRunner(jobs=2).run(CELLS, "chaos")
        crashed = [o for o in report.failures if o.error.kind == "worker-crash"]
        assert crashed  # the killed cell (collateral cells may retry free)
        ok = [r for r in report.results if r is not None]
        expected = {json.dumps(r, sort_keys=True) for r in baseline}
        assert all(json.dumps(r, sort_keys=True) in expected for r in ok)

    def test_kill_is_refused_in_the_test_process(self, tmp_path):
        with _strike(tmp_path, "kill", "cell2"), pytest.raises(StrikeRefused):
            ExperimentRunner(jobs=1).run(CELLS, "chaos")


class TestWatchdogTimeout:
    def test_hung_worker_is_reaped_and_retried(self, baseline, tmp_path):
        with _strike(tmp_path, "hang", "cell0", seconds=60):
            report = ExperimentRunner(
                jobs=2, retries=1, cell_timeout=2.0, **FAST
            ).run(CELLS, "chaos")
        assert not report.failures
        assert report.results == baseline
        assert report.outcomes[0].attempts == 2  # the reaped attempt counts

    def test_hung_worker_without_retries_times_out(self, tmp_path):
        with _strike(tmp_path, "hang", "cell1", seconds=60):
            report = ExperimentRunner(jobs=2, cell_timeout=1.5, **FAST).run(
                CELLS, "chaos"
            )
        assert [o.error.kind for o in report.failures] == ["timeout"]
        assert "cell_timeout" in report.failures[0].error.message
        assert sum(1 for o in report.outcomes if o.ok) == len(CELLS) - 1


class TestInterruptResume:
    def test_interrupt_flushes_partial_manifest(self, tmp_path):
        with _strike(tmp_path, "interrupt", "cell4"), pytest.raises(KeyboardInterrupt):
            ExperimentRunner(runs_dir=tmp_path).run(CELLS, "chaos")
        manifest = load_manifest(latest_manifest(tmp_path))
        assert manifest["status"] == "interrupted"
        assert len(manifest["cells"]) == 4  # cells 0-3 finished before Ctrl-C
        assert manifest["checkpoint"] is not None
        checkpoint = load_checkpoint(manifest["checkpoint"])
        assert len(checkpoint) == 4

    def test_resume_recomputes_only_unfinished_cells(self, baseline, tmp_path):
        with _strike(tmp_path, "interrupt", "cell4"), pytest.raises(KeyboardInterrupt):
            ExperimentRunner(runs_dir=tmp_path).run(CELLS, "chaos")
        manifest_path = latest_manifest(tmp_path)

        resumed = ExperimentRunner(resume_from=manifest_path, runs_dir=tmp_path).run(
            CELLS, "chaos"
        )
        # Hit/miss counters prove only the two unfinished cells ran.
        assert resumed.cache_hits == 4
        assert resumed.cache_misses == 2
        assert resumed.results == baseline
        assert [o.worker for o in resumed.outcomes[:4]] == ["resume"] * 4
        # The resumed run's manifest is a complete record.
        final = load_manifest(resumed.manifest_path)
        assert final["status"] == "complete"
        assert len(final["cells"]) == len(CELLS)

    def test_resume_accepts_the_checkpoint_file_directly(self, baseline, tmp_path):
        with _strike(tmp_path, "interrupt", "cell2"), pytest.raises(KeyboardInterrupt):
            ExperimentRunner(runs_dir=tmp_path).run(CELLS, "chaos")
        checkpoint = load_manifest(latest_manifest(tmp_path))["checkpoint"]
        resumed = ExperimentRunner(resume_from=checkpoint).run(CELLS, "chaos")
        assert resumed.cache_hits == 2
        assert resumed.results == baseline

    def test_resume_from_missing_file_raises_cleanly(self, tmp_path):
        runner = ExperimentRunner(resume_from=tmp_path / "nope.json")
        with pytest.raises(FileNotFoundError, match="does not exist"):
            runner.run(CELLS, "chaos")

    def test_all_hit_run_writes_no_checkpoint_and_no_fsync(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        ExperimentRunner(cache=cache).run(CELLS, "fill")
        fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        runs = tmp_path / "runs"
        report = ExperimentRunner(cache=cache, runs_dir=runs).run(CELLS, "warm")
        assert report.cache_hits == len(CELLS)
        assert sorted(runs.iterdir()) == [report.manifest_path]
        assert fsyncs == []
        assert report.checkpoint_path is None
        manifest = load_manifest(report.manifest_path)
        assert manifest["checkpoint"] is None
        assert manifest["cache"]["hit_rate"] == 1.0

    def test_mixed_run_checkpoints_hits_then_computed_cells(
        self, baseline, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        ExperimentRunner(cache=cache).run(CELLS[1::2], "fill")
        report = ExperimentRunner(cache=cache, runs_dir=tmp_path / "runs").run(
            CELLS, "mixed"
        )
        assert (report.cache_hits, report.cache_misses) == (3, 3)
        lines = [
            json.loads(line)
            for line in report.checkpoint_path.read_text().splitlines()
        ]
        assert [(r["label"], r["cache_hit"]) for r in lines] == [
            ("cell1", True), ("cell3", True), ("cell5", True),
            ("cell0", False), ("cell2", False), ("cell4", False),
        ]
        by_label = {o.label: o for o in report.outcomes}
        assert lines == [by_label[r["label"]].checkpoint_entry() for r in lines]
        assert report.results == baseline

    @pytest.mark.parametrize("k", [2, 5])
    def test_interrupt_in_lookup_pass_checkpoints_the_hits_found(
        self, k, baseline, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        ExperimentRunner(cache=cache).run(CELLS, "fill")
        calls = itertools.count(1)
        real_get = ResultCache.get

        def get(self, key):
            if next(calls) == k:
                raise KeyboardInterrupt
            return real_get(self, key)

        monkeypatch.setattr(ResultCache, "get", get)
        runs = tmp_path / "runs"
        with pytest.raises(KeyboardInterrupt):
            ExperimentRunner(cache=cache, runs_dir=runs).run(CELLS, "warm")
        monkeypatch.undo()

        manifest_path = latest_manifest(runs)
        manifest = load_manifest(manifest_path)
        assert manifest["status"] == "interrupted"
        assert len(manifest["cells"]) == k - 1
        checkpoint = load_checkpoint(manifest["checkpoint"])
        assert len(checkpoint) == k - 1
        # No cache on the resume: only the cells past the interrupt run.
        resumed = ExperimentRunner(resume_from=manifest_path).run(CELLS, "warm")
        assert (resumed.cache_hits, resumed.cache_misses) == (k - 1, len(CELLS) - k + 1)
        assert [o.worker for o in resumed.outcomes[: k - 1]] == ["resume"] * (k - 1)
        assert resumed.results == baseline

    def test_torn_checkpoint_line_is_skipped(self, tmp_path):
        path = tmp_path / "torn.checkpoint.jsonl"
        good = {"status": "ok", "key": "k1", "payload": {"x": 1}}
        path.write_text(json.dumps(good) + "\n" + '{"status": "ok", "key": "k2"')
        assert load_checkpoint(path) == {"k1": good}


class _ChatteringSource(Element):
    """A one-node element whose damped Newton enters an exact 2-cycle.

    ``f(v) = v^3 - 2v + 2`` with a Jacobian stamp: the damped iteration
    from 0 chatters between 0.5 and 1.0 forever and step halving cannot
    break the cycle (the problem is time-independent) — but the gmin
    rescue ladder deforms it to the real root near -1.7693.  Its custom
    ``stamp`` runs on the reference stamping oracle.
    """

    def __init__(self):
        super().__init__("chatter")

    def nodes(self):
        return ["a"]

    def stamp(self, G, I, x, v_prev, t, dt):
        idx = self._indices[0]
        v = x[idx]
        f = v**3 - 2.0 * v + 2.0
        df = 3.0 * v**2 - 2.0
        G[idx, idx] += df
        I[idx] += df * v - f


def _divergent_cell(params):
    """Test-only cell kind: run a circuit whose Newton solve diverges."""
    run_divergent_circuit("chatter-test")


class TestSolverFailurePropagation:
    """Satellite: ConvergenceError surfaces as a failed outcome, intact."""

    @pytest.fixture()
    def divergent_kind(self, monkeypatch):
        monkeypatch.setitem(
            CELL_KINDS,
            "divergent-circuit",
            CellKind("divergent-circuit", (), (), lambda p: "bad", _divergent_cell),
        )

    def test_chattering_circuit_is_rescued_by_gmin_stepping(self):
        """The PR 2 chattering netlist now *completes* via the rescue ladder."""
        circuit = Circuit(name="chatter-direct")
        circuit.add(_ChatteringSource())
        result = reference_session(circuit).simulate(t_stop=1e-9, dt=1e-10)
        assert result.stats.rescues >= 1
        assert result.stats.rescue_reports[0].stage == "gmin"
        assert result.stats.rescue_reports[0].converged
        # All rescued steps land on the cubic's real root.
        assert result["a"][-1] == pytest.approx(-1.7692923542386314)

    def test_unrescuable_circuit_exhausts_the_ladder(self):
        circuit = Circuit(name="divergent-direct")
        circuit.add(DivergentSource())
        with pytest.raises(ConvergenceError, match="subdivisions") as info:
            reference_session(circuit).simulate(t_stop=1e-9, dt=1e-10)
        assert "rescue ladder exhausted" in str(info.value)
        assert info.value.report is not None
        assert not info.value.report.converged

    def test_convergence_error_becomes_failed_outcome(self, divergent_kind):
        cells = [CELLS[0], Cell("divergent-circuit", {"n": 1}, label="bad"), CELLS[1]]
        report = ExperimentRunner().run(cells, "solver-chaos")
        assert len(report.outcomes) == 3
        assert [o.ok for o in report.outcomes] == [True, False, True]
        error = report.outcomes[1].error
        assert error.exception_type == "ConvergenceError"
        assert f"after {MAX_SUBDIVISIONS} step subdivisions" in error.message
        assert "ConvergenceError" in error.traceback
        # The structured rescue report rode along as diagnostics.
        convergence = error.diagnostics["convergence"]
        assert convergence["netlist"] == "chatter-test"
        assert convergence["stage"] == "failed"
        assert convergence["attempts"]


class TestNumericChaosActions:
    """The numeric strikes drive the resilience layer end to end."""

    def test_nan_surfaces_as_structured_numerical_error(self, tmp_path):
        with _strike(tmp_path, "nan", "cell0"):
            report = ExperimentRunner(runs_dir=tmp_path).run(
                CELLS[:3], "numeric-chaos"
            )
        assert [o.ok for o in report.outcomes] == [False, True, True]
        error = report.outcomes[0].error
        assert error.exception_type == "NumericalError"
        assert "non-finite value at boundary technology.TechnologyParams" in error.message
        numerical = error.diagnostics["numerical"]
        assert numerical["boundary"] == "technology.TechnologyParams"
        assert numerical["array"] == "vdd"
        # The manifest carries the diagnostics for offline triage.
        manifest = load_manifest(report.manifest_path)
        entry = [c for c in manifest["cells"] if c["status"] == "failed"][0]
        assert entry["error"]["diagnostics"]["numerical"] == numerical

    def test_nan_state_never_leaks_into_later_cells(self, baseline, tmp_path):
        with _strike(tmp_path, "nan", "cell1"):
            report = ExperimentRunner().run(CELLS[:4], "numeric-chaos")
        assert [o.ok for o in report.outcomes] == [True, False, True, True]
        assert report.results[2:] == baseline[2:4]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_diverge_fails_with_authentic_convergence_report(self, tmp_path, jobs):
        # At jobs=2 the struck cell runs in a pool worker, which installs
        # the reference stamping for the divergent element itself.
        with _strike(tmp_path, "diverge", "cell1"):
            report = ExperimentRunner(jobs=jobs, runs_dir=tmp_path).run(
                CELLS[:3], "numeric-chaos"
            )
        assert [o.ok for o in report.outcomes] == [True, False, True]
        error = report.outcomes[1].error
        assert error.exception_type == "ConvergenceError"
        convergence = error.diagnostics["convergence"]
        assert convergence["stage"] == "failed"
        assert convergence["netlist"] == "diverge cell1"
        assert convergence["attempts"]  # the full rescue ladder was walked

    def test_fig4_sweep_keeps_numerical_and_convergence_diagnostics(self, tmp_path):
        """One struck fig4 cell fails with ``numerical`` diagnostics, one
        with ``convergence``; the four unstruck cells complete."""
        from repro.experiments.cli import main

        runs = tmp_path / "runs"
        argv = ["fig4", "--duration", "0.02", "--benchmarks", "blackscholes",
                "bodytrack", "--jobs", "1", "--no-cache", "--runs-dir", str(runs)]
        strikes = (Strike("nan", "raidr/blackscholes"),
                   Strike("diverge", "raidr/bodytrack"))
        with inject(tmp_path / "markers", *strikes):
            assert main(argv) == 0
        manifest = load_manifest(latest_manifest(runs))
        fails = {c["label"]: c["error"] for c in manifest["cells"]
                 if c["status"] == "failed"}
        assert {label: set(error["diagnostics"]) for label, error in fails.items()} == {
            "raidr/blackscholes": {"numerical"},
            "raidr/bodytrack": {"convergence"},
        }
        completed = [c for c in manifest["cells"] if c["status"] == "ok"]
        assert len(completed) == 4

    @pytest.mark.parametrize(
        "cell,kernel",
        [
            (CELLS[0], "repro.sim.timeline.segmented_fulls"),
            (_rank_cell("vrl"), "repro.sim.rank.crossing_kinds"),
            (_rank_cell("all-bank"), "repro.sim.rank.service_starts"),
        ],
        ids=["refresh-overhead", "rank-per-bank", "rank-all-bank"],
    )
    def test_fused_timeline_failure_is_a_failed_cell(
        self, monkeypatch, tmp_path, cell, kernel
    ):
        """A fused-kernel bug fails the cell loudly, with its type on record."""

        def broken_kernel(*args, **kwargs):
            raise RuntimeError("fused kernel exploded")

        monkeypatch.setattr(kernel, broken_kernel)
        report = ExperimentRunner(jobs=1, runs_dir=tmp_path).run(
            [cell], "fused-failure"
        )
        assert [o.ok for o in report.outcomes] == [False]
        assert [f.label for f in report.failures] == [cell.label]
        assert report.failures[0].error.exception_type == "RuntimeError"
        manifest = load_manifest(report.manifest_path)
        entry = manifest["cells"][0]
        assert entry["status"] == "failed"
        assert entry["error"]["exception_type"] == "RuntimeError"
        assert "fused kernel exploded" in entry["error"]["message"]
        assert [f["exception_type"] for f in manifest["failures"]] == ["RuntimeError"]


class TestDriverFailureTolerance:
    """The sweep drivers degrade gracefully around failed cells."""

    def test_fig4_drops_only_the_broken_benchmark(self, tmp_path):
        from repro.experiments import run_fig4
        from repro.technology import BankGeometry

        kwargs = dict(
            geometry=BankGeometry(256, 16),
            duration_seconds=0.1,
            benchmarks=["swaptions", "canneal"],
        )
        clean = run_fig4(**kwargs)
        with _strike(tmp_path, "raise", "raidr/swaptions"):
            chaotic = run_fig4(runner=ExperimentRunner(), **kwargs)
        benches = [row[0] for row in chaotic.rows]
        assert benches == ["canneal", "MEAN"]
        assert chaotic.notes["benchmarks dropped (failed cells)"] == "swaptions"
        assert "runner failures" in chaotic.notes
        # The surviving benchmark's numbers are untouched by the fault.
        clean_canneal = [row for row in clean.rows if row[0] == "canneal"]
        chaos_canneal = [row for row in chaotic.rows if row[0] == "canneal"]
        assert chaos_canneal == clean_canneal

    def test_temperature_drops_only_the_broken_point(self, tmp_path):
        from repro.experiments import run_temperature_study
        from repro.technology import BankGeometry

        with _strike(tmp_path, "raise", "temp/65C"):
            result = run_temperature_study(
                geometry=BankGeometry(256, 16), runner=ExperimentRunner()
            )
        assert len(result.rows) == 4  # 5 points, 1 dropped
        assert result.notes["temperatures dropped (failed cells)"] == "65 C"
