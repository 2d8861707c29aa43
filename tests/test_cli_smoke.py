"""End-to-end CLI smoke: every experiment verb runs and emits rows.

Each registered verb is executed through ``main()`` exactly as a user
would (``--jobs 1 --no-cache`` on tiny inputs), asserting the exit
code, the completion banner, and a non-empty CSV table — the cheapest
possible guarantee that no verb's wiring (parser → registry → sweep
client → driver) is broken.
"""

import pytest

from repro.experiments.cli import main
from repro.service import experiment_names

#: Per-verb flags that shrink the workload to smoke-test size.
TINY_FLAGS = {
    "fig1a": ["--no-spice"],
    "table1": ["--no-spice"],
    "fig4": ["--duration", "0.02", "--benchmarks", "blackscholes"],
    "performance": ["--duration", "0.02", "--benchmarks", "swaptions"],
    "baselines": ["--duration", "0.05"],
    "mechanisms": [
        "--duration", "0.02",
        "--benchmarks", "blackscholes",
        "--mechanisms", "fixed", "darp", "chargecache",
    ],
}


@pytest.mark.parametrize("verb", experiment_names())
def test_verb_runs_and_emits_rows(verb, tmp_path, capsys):
    csv_dir = tmp_path / "csv"
    argv = [
        verb, "--jobs", "1", "--no-cache", "--runs-dir", "",
        "--csv", str(csv_dir),
    ] + TINY_FLAGS.get(verb, [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"[{verb} completed" in out
    csv_path = csv_dir / f"{verb}.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) >= 2, f"{verb} produced no result rows"


def test_all_verbs_are_covered():
    """The registry and the CLI choices agree (no orphaned verb)."""
    from repro.experiments.cli import build_parser

    parser = build_parser()
    action = next(a for a in parser._actions if a.dest == "experiment")
    assert set(action.choices) == set(experiment_names()) | {"all"}
