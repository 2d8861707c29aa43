"""Command-line entry point: ``vrl-dram <experiment> [options]``.

Examples::

    vrl-dram fig4 --duration 1.0
    vrl-dram fig4 --jobs 4              # fan sweep cells across 4 workers
    vrl-dram table1 --no-spice
    vrl-dram all --jobs 0 --no-cache    # one worker per CPU, recompute all

Every experiment dispatches through :data:`VERBS`, the one table
from verb to driver that :func:`main` and :func:`run_experiment` share:
the sweep verbs (``fig4``, ``performance``, ``rank``, ``baselines``,
``mechanisms``, ``temperature``, ``calibrate``) build their cells with
:meth:`~repro.runner.Cell.of` and run them through the
:class:`~repro.runner.ExperimentRunner` built from ``--jobs`` /
``--cache-dir`` / ``--no-cache``, on the calling thread.  Cells
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
from typing import Any, Callable, Optional

from ..mprsf.optimizer import check_nbits
from ..runner import ExperimentRunner, ResultCache, latest_manifest
from ..runner.cells import check_cycles, check_seed, tech_params
from ..technology import DEFAULT_TECH
from . import (
    ExperimentResult,
    run_baseline_comparison,
    run_bins_ablation,
    run_calibration_study,
    run_fig1a,
    run_fig1b,
    run_fig3,
    run_fig4,
    run_fig5,
    run_geometry_ablation,
    run_guard_ablation,
    run_latency_breakdown,
    run_mechanism_matrix,
    run_nbits_ablation,
    run_performance_study,
    run_rank_comparison,
    run_sensitivity,
    run_table1,
    run_table2,
    run_temperature_study,
    run_validation,
)

#: Default directory for the per-run observability manifests.
DEFAULT_RUNS_DIR = "runs"


#: One driver call per verb, from the verb options (the parsed CLI
#: flags, or :func:`run_experiment`'s keywords over the parser's
#: defaults) and the runner the sweep verbs run their cells through.
VERBS: dict[
    str, Callable[[argparse.Namespace, Optional[ExperimentRunner]], ExperimentResult]
] = {
    "fig1a": lambda opts, runner: run_fig1a(with_spice=opts.spice),
    "fig1b": lambda opts, runner: run_fig1b(),
    "fig3": lambda opts, runner: run_fig3(seed=opts.seed),
    "sec31": lambda opts, runner: run_latency_breakdown(seed=opts.seed),
    "fig4": lambda opts, runner: run_fig4(
        duration_seconds=opts.duration,
        benchmarks=opts.benchmarks or None,
        nbits=opts.nbits,
        seed=opts.seed,
        runner=runner,
    ),
    "fig5": lambda opts, runner: run_fig5(),
    "table1": lambda opts, runner: run_table1(with_spice=opts.spice),
    "table2": lambda opts, runner: run_table2(),
    "ablation-nbits": lambda opts, runner: run_nbits_ablation(seed=opts.seed),
    "ablation-guard": lambda opts, runner: run_guard_ablation(seed=opts.seed),
    "ablation-geometry": lambda opts, runner: run_geometry_ablation(),
    "ablation-bins": lambda opts, runner: run_bins_ablation(seed=opts.seed),
    "sensitivity": lambda opts, runner: run_sensitivity(),
    "rank": lambda opts, runner: run_rank_comparison(seed=opts.seed, runner=runner),
    "validate": lambda opts, runner: run_validation(),
    "baselines": lambda opts, runner: run_baseline_comparison(
        duration_seconds=opts.duration, seed=opts.seed, runner=runner
    ),
    "mechanisms": lambda opts, runner: run_mechanism_matrix(
        **({"mechanisms": opts.mechanisms} if opts.mechanisms else {}),
        **({"benchmarks": opts.benchmarks} if opts.benchmarks else {}),
        # The merged-chain engine no longer needs a short horizon
        # for speed; the cap stays only so the committed
        # `mechanisms` output digests keep their 0.2 s cells.
        duration_seconds=min(opts.duration, 0.2),
        nbits=opts.nbits,
        seed=opts.seed,
        runner=runner,
    ),
    "temperature": lambda opts, runner: run_temperature_study(
        seed=opts.seed, runner=runner
    ),
    "calibrate": lambda opts, runner: run_calibration_study(runner=runner),
    "performance": lambda opts, runner: run_performance_study(
        duration_seconds=min(opts.duration, 0.5),
        benchmarks=opts.benchmarks or None,
        seed=opts.seed,
        runner=runner,
    ),
}


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
def _verb_options(mechanisms: tuple[str, ...]) -> argparse.ArgumentParser:
    """The options :data:`VERBS` read, their one declaration and default.

    :func:`build_parser` inherits them; :func:`run_experiment` takes
    its accepted keywords and their defaults from here.
    """
    parser = argparse.ArgumentParser(add_help=False)
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
        "--no-spice",
        dest="spice",
        action="store_false",
        help="fig1a/table1: skip the SPICE-lite circuit simulations",
    )
    return parser


@functools.cache
def _parser(mechanisms: tuple[str, ...]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrl-dram",
        description="Reproduce the figures and tables of VRL-DRAM (DAC 2018).",
        parents=[_verb_options(mechanisms)],
    )
    parser.add_argument(
        "experiment",
        choices=sorted(VERBS) + ["all"],
        help="which paper artifact to regenerate",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each result table as <DIR>/<experiment>.csv",
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
        check_seed(args.seed)
    except ValueError as exc:
        return f"--{exc}"  # each message starts with the option's name
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


def run_experiment(
    name: str, runner: Optional[ExperimentRunner] = None, **options: Any
) -> ExperimentResult:
    """Run one experiment by verb name, as ``vrl-dram <name>`` would.

    Args:
        name: a verb of :data:`VERBS`.
        runner: the executor the sweep verbs run their cells through
            (``None`` builds a serial, uncached one per sweep).
        **options: verb options by their CLI ``dest`` (``duration``,
            ``seed``, ``spice``, ...); an unset one takes its flag's
            default and an unknown one raises :class:`TypeError`.
    """
    defaults = vars(_verb_options(tuple(_mechanism_names())).parse_args([]))
    unknown = sorted(set(options) - set(defaults))
    if unknown:
        raise TypeError(f"unknown experiment options: {', '.join(unknown)}")
    if name not in VERBS:
        raise KeyError(f"unknown experiment {name!r}; registered: {sorted(VERBS)}")
    return VERBS[name](argparse.Namespace(**{**defaults, **options}), runner)


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
    names = sorted(VERBS) if args.experiment == "all" else [args.experiment]
    try:
        for name in names:
            t0 = time.perf_counter()
            result = VERBS[name](args, runner)
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
