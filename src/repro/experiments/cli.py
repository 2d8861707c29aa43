"""Command-line entry point: ``vrl-dram <experiment> [options]``.

Examples::

    vrl-dram fig4 --duration 1.0
    vrl-dram fig4 --jobs 4              # fan sweep cells across 4 workers
    vrl-dram table1 --no-spice
    vrl-dram all --jobs 0 --no-cache    # one worker per CPU, recompute all

Every experiment dispatches through the registry
(:mod:`repro.service`): the sweep verbs (``fig4``, ``performance``,
``rank``, ``baselines``, ``mechanisms``, ``temperature``,
``calibrate``) build their cells with :meth:`~repro.runner.Cell.of`
and run them through the :class:`~repro.runner.ExperimentRunner` built
from ``--jobs`` / ``--cache-dir`` / ``--no-cache``, on the calling
thread.  Cells
are cached on disk keyed by the full parameter set (see
``--cache-dir``), fanned out over worker processes, and each sweep
writes an observability manifest to ``--runs-dir``.  A warm re-run
only recomputes cells whose parameters (or the package/result-schema
version) changed.

Fault tolerance: a failing cell no longer aborts the sweep — it is
retried ``--retries`` times (exponential backoff), reaped by a watchdog
after ``--cell-timeout`` seconds, and finally reported as a failed cell
in the manifest while the rest of the grid completes.  Ctrl-C or
SIGTERM flushes a partial ``"interrupted"`` manifest and exits 130;
``--resume <manifest>`` picks the run back up, recomputing only the
unfinished cells::

    vrl-dram fig4 --jobs 4 --retries 2 --cell-timeout 600
    vrl-dram fig4 --resume runs/20260806T120000.123456.json
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional

from ..mprsf.optimizer import check_nbits
from ..runner import ExperimentRunner, ResultCache, latest_manifest
from ..runner.cells import check_cycles, tech_params
from ..service import experiment_names, experiment_options, run_experiment
from ..technology import DEFAULT_TECH

#: Default directory for the per-run observability manifests.
DEFAULT_RUNS_DIR = "runs"


def default_cache_dir() -> Path:
    """The cell cache location: ``$VRL_DRAM_CACHE`` or ``~/.cache/vrl-dram``.

    Resolved at runner-construction time (not import time) so tests and
    wrappers can redirect it through the environment.
    """
    return Path(os.environ.get("VRL_DRAM_CACHE", Path.home() / ".cache" / "vrl-dram"))


def _runner_for(args: argparse.Namespace) -> ExperimentRunner:
    """Build the shared experiment runner from the parsed CLI flags."""
    cache: Optional[ResultCache] = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    return ExperimentRunner(
        jobs=args.jobs,
        cache=cache,
        runs_dir=args.runs_dir,
        retries=args.retries,
        cell_timeout=args.cell_timeout,
        resume_from=args.resume,
    )


def _mechanism_names() -> list[str]:
    """Registered mechanism names, straight from the registry.

    The CLI's ``--mechanisms`` choices and error messages are driven by
    :data:`~repro.controller.MECHANISMS`, so a mechanism registered at
    runtime (e.g. by ``examples/custom_policy.py``) is immediately
    accepted without touching the CLI.
    """
    from ..controller import MECHANISMS

    return MECHANISMS.names()


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for the tests).

    Built once per process and set of registered mechanisms: a
    mechanism registered at runtime gets a fresh parser whose
    ``--mechanisms`` help lists it.
    """
    return _parser(tuple(_mechanism_names()))


@functools.cache
def _parser(mechanisms: tuple[str, ...]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrl-dram",
        description="Reproduce the figures and tables of VRL-DRAM (DAC 2018).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(experiment_names()) + ["all"],
        help="which paper artifact to regenerate",
    )
    parser.add_argument("--duration", type=float, default=1.0, help="fig4: seconds of simulated time")
    parser.add_argument(
        "--benchmarks", nargs="*", default=None, help="fig4: subset of benchmark names"
    )
    parser.add_argument(
        "--mechanisms",
        nargs="*",
        default=None,
        metavar="NAME",
        help="mechanisms: subset of registered mechanism names "
        f"(registered: {', '.join(mechanisms)})",
    )
    parser.add_argument("--nbits", type=int, default=2, help="fig4: counter width")
    parser.add_argument("--seed", type=int, default=2018, help="profiling/trace RNG seed")
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each result table as <DIR>/<experiment>.csv",
    )
    parser.add_argument(
        "--no-spice",
        dest="spice",
        action="store_false",
        help="fig1a/table1: skip the SPICE-lite circuit simulations",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep experiments (0 = one per CPU)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="on-disk cell-result cache for sweep experiments "
        "(default: $VRL_DRAM_CACHE or ~/.cache/vrl-dram)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every sweep cell, ignoring the cache",
    )
    parser.add_argument(
        "--runs-dir",
        metavar="DIR",
        default=DEFAULT_RUNS_DIR,
        help="where sweep runs write their <timestamp>.json manifest "
        "('' disables)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per failing sweep cell (exponential backoff)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget; a stuck worker is killed and the "
        "cell retried (requires --jobs >= 2)",
    )
    parser.add_argument(
        "--resume",
        metavar="MANIFEST",
        default=None,
        help="resume an interrupted sweep from its run manifest (or "
        ".checkpoint.jsonl), recomputing only the unfinished cells",
    )
    parser.set_defaults(spice=True)
    return parser


def _positive_finite(value: float) -> bool:
    """True for a finite value above zero (NaN fails both tests)."""
    return math.isfinite(value) and value > 0


def _validate_args(args: argparse.Namespace) -> Optional[str]:
    """One-line error for nonsensical flag values, or ``None`` if sane."""
    if args.jobs < 0:
        return f"--jobs must be >= 0, got {args.jobs}"
    if args.retries < 0:
        return f"--retries must be >= 0, got {args.retries}"
    if not _positive_finite(args.duration):
        return f"--duration must be finite and > 0 seconds, got {args.duration:g}"
    try:
        # The bound every timed cell enforces, at the clock the verbs use.
        check_cycles(args.duration, tech_params(DEFAULT_TECH))
    except ValueError as exc:
        return f"--duration {exc}"
    try:
        check_nbits(args.nbits)
    except ValueError as exc:
        return f"--{exc}"  # check_nbits' message starts with "nbits"
    if args.cell_timeout is not None and not _positive_finite(args.cell_timeout):
        return f"--cell-timeout must be finite and > 0 seconds, got {args.cell_timeout:g}"
    if args.resume is not None and not Path(args.resume).exists():
        return f"--resume manifest {args.resume} does not exist"
    if args.mechanisms:
        registered = _mechanism_names()
        unknown = sorted(set(args.mechanisms) - set(registered))
        if unknown:
            return (
                f"--mechanisms: unknown {', '.join(unknown)}; "
                f"registered: {', '.join(registered)}"
            )
    return None


def main(argv: list[str] | None = None) -> int:
    """Run one (or all) experiments from the CLI."""
    args = build_parser().parse_args(argv)
    problem = _validate_args(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if not args.runs_dir:
        args.runs_dir = None
    # One runner per call, so `vrl-dram all` shares its cache and workers.
    runner = _runner_for(args)
    options = experiment_options(vars(args))
    names = (
        sorted(experiment_names()) if args.experiment == "all" else [args.experiment]
    )
    try:
        for name in names:
            t0 = time.perf_counter()
            result = run_experiment(name, runner=runner, **options)
            elapsed = time.perf_counter() - t0
            print(result.format())
            print(f"[{name} completed in {elapsed:.1f}s]\n")
            if args.csv:
                directory = Path(args.csv)
                directory.mkdir(parents=True, exist_ok=True)
                result.to_csv(directory / f"{name}.csv")
    except KeyboardInterrupt:
        hint = ""
        if args.runs_dir is not None:
            try:
                hint = f"; resume with: --resume {latest_manifest(args.runs_dir)}"
            except (FileNotFoundError, OSError):
                pass
        print(f"\ninterrupted{hint}", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
