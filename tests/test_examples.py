"""Smoke test of ``examples/``: each script runs to completion on its own.

Some library paths (the ``trace_stats`` predictor, the scalar adaptive
transient) are reached by an example and nothing else, so running the
examples is what keeps them working.  Each one runs in a fresh
interpreter with ``PYTHONPATH=src``, from an empty working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["VRL_DRAM_CACHE"] = str(tmp_path / "cache")
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
