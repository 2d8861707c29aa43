"""Golden regression tests: short fixed-seed runs vs checked-in CSVs.

These pin the *numbers* of the two headline artifacts (Fig. 4 and
Table 1) so that runner/cache/executor refactors cannot silently change
results: any legitimate change to the physics or policies must come
with a conscious regeneration of the goldens.

Regenerate (after verifying the change is intended) with::

    PYTHONPATH=src python tests/golden/regenerate.py

Only deterministic columns are pinned — wall-clock columns and runner
telemetry notes are excluded.
"""

from pathlib import Path

from repro.controller import build_policy
from repro.experiments import run_fig4, run_table1
from repro.retention import RefreshBinning, RetentionProfiler
from repro.runner import ExperimentRunner, ResultCache
from repro.sim import DRAMTiming, RefreshOverheadEvaluator
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.workloads import PARSEC_WORKLOADS, TraceGenerator
from tests.reference_refresh import round_walk

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Fixed recipe of the pinned Fig. 4 run (mirrored in regenerate.py).
FIG4_RECIPE = dict(
    duration_seconds=0.2,
    benchmarks=["swaptions", "canneal", "freqmine"],
    nbits=2,
    seed=2018,
)

#: Deterministic Table 1 columns (wall-clock columns excluded).
TABLE1_COLUMNS = ("bank size", "single cell", "our model", "paper (S/C/M)")

#: Fixed recipe of the pinned fused-timeline run: refresh statistics
#: plus the timeline-only telemetry (crossings, resets) no other
#: artifact records.
TIMELINE_RECIPE = dict(
    rows=1024,
    cols=32,
    duration_seconds=0.2,
    nbits=2,
    seed=2018,
    policies=("fixed", "raidr", "vrl", "vrl-access"),
    benchmarks=(None, "swaptions", "canneal"),
)


def timeline_golden_rows(oracle=False):
    """CSV lines of the pinned fused-timeline run (mirrors regenerate.py).

    ``oracle=True`` prices with :func:`round_walk` instead: the same
    statistic columns with timeline telemetry blanked — used to assert
    the round walk still agrees with the pinned fused numbers.
    """
    recipe = TIMELINE_RECIPE
    timing = DRAMTiming.from_technology(DEFAULT_TECH)
    geometry = BankGeometry(recipe["rows"], recipe["cols"])
    profile = RetentionProfiler(seed=recipe["seed"]).profile(geometry)
    binning = RefreshBinning().assign(profile)
    duration = timing.cycles(recipe["duration_seconds"])
    lines = [
        "policy,benchmark,full_refreshes,partial_refreshes,refresh_cycles,"
        "crossings,resets"
    ]
    for name in recipe["policies"]:
        policy = build_policy(
            name, DEFAULT_TECH, profile, binning, nbits=recipe["nbits"]
        )
        evaluator = RefreshOverheadEvaluator(policy, timing)
        for benchmark in recipe["benchmarks"]:
            trace = (
                TraceGenerator(
                    PARSEC_WORKLOADS[benchmark], timing, geometry,
                    recipe["seed"],
                ).generate(recipe["duration_seconds"])
                if benchmark
                else None
            )
            if oracle:
                stats = round_walk(policy, timing, duration, trace)
                crossings = resets = ""
            else:
                stats = evaluator.evaluate(duration, trace)
                report = evaluator.timeline.last_report
                crossings, resets = report.crossings, report.resets
            lines.append(
                f"{name},{benchmark or 'idle'},{stats.full_refreshes},"
                f"{stats.partial_refreshes},{stats.refresh_cycles},"
                f"{crossings},{resets}"
            )
    return lines


def golden_rows(result, columns=None):
    """The comparable CSV lines of a result (headers + selected columns)."""
    headers = list(result.headers)
    indices = (
        [headers.index(c) for c in columns] if columns else list(range(len(headers)))
    )
    lines = [",".join(headers[i] for i in indices)]
    for row in result.rows:
        lines.append(",".join(result._fmt(row[i]) for i in indices))
    return lines


def read_golden(name):
    path = GOLDEN_DIR / name
    assert path.is_file(), f"golden file {path} missing — run regenerate.py"
    return path.read_text().strip().splitlines()


class TestFig4Golden:
    def test_matches_golden(self):
        result = run_fig4(**FIG4_RECIPE)
        assert golden_rows(result) == read_golden("fig4_short.csv")

    def test_matches_golden_through_runner(self, tmp_path):
        """The parallel cached path reproduces the same pinned numbers —
        cold and warm."""
        for _ in range(2):
            runner = ExperimentRunner(jobs=2, cache=ResultCache(tmp_path))
            result = run_fig4(**FIG4_RECIPE, runner=runner)
            assert golden_rows(result) == read_golden("fig4_short.csv")


class TestTable1Golden:
    def test_model_columns_match_golden(self):
        result = run_table1(with_spice=False)
        assert golden_rows(result, TABLE1_COLUMNS) == read_golden("table1_model.csv")


class TestTimelineGolden:
    """Pinned fused-path statistics + timeline-only telemetry."""

    def test_fused_matches_golden(self):
        assert timeline_golden_rows() == read_golden("timeline_fused.csv")

    def test_round_walk_agrees_with_pinned_statistics(self):
        """The PR 3 oracle reproduces the golden's statistic columns —
        regenerating the golden can never hide a fused/loop split."""
        golden_stats = [
            line.rsplit(",", 2)[0] for line in read_golden("timeline_fused.csv")
        ]
        loop_stats = [
            line.rsplit(",", 2)[0] for line in timeline_golden_rows(oracle=True)
        ]
        assert loop_stats == golden_stats
