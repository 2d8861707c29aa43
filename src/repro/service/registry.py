"""Experiment registry: one dispatch table for CLI, examples, tests.

Maps every ``vrl-dram`` experiment verb to a thin closure over its
driver.  Sweep drivers receive the experiment runner (their execution
backend); figure/table drivers compute inline but dispatch through the
same table — so the CLI, the examples, and anything else that wants "an
experiment by name" share one code path.

Driver imports are resolved lazily inside :func:`run_experiment` to
keep the import graph acyclic (the drivers themselves import
:mod:`repro.service`).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from ..runner import ExperimentRunner

#: Option defaults shared by every entry (mirrors the CLI flag defaults).
EXPERIMENT_DEFAULTS: dict[str, Any] = {
    "duration": 1.0,
    "benchmarks": None,
    "mechanisms": None,
    "nbits": 2,
    "seed": 2018,
    "spice": True,
}

#: Every registered experiment verb, in CLI ``choices`` order.
EXPERIMENT_NAMES = (
    "fig1a",
    "fig1b",
    "fig3",
    "sec31",
    "fig4",
    "fig5",
    "table1",
    "table2",
    "ablation-nbits",
    "ablation-guard",
    "ablation-geometry",
    "ablation-bins",
    "sensitivity",
    "rank",
    "validate",
    "baselines",
    "mechanisms",
    "temperature",
    "calibrate",
    "performance",
)


def run_experiment(
    name: str, runner: Optional[ExperimentRunner] = None, **options: Any
):
    """Run one experiment by verb name, returning its
    :class:`~repro.experiments.result.ExperimentResult`.

    Args:
        name: a verb from :data:`EXPERIMENT_NAMES`.
        runner: the executor the sweep verbs run their cells through
            (``None`` builds a serial, uncached one per sweep).
        **options: CLI-style options (see :data:`EXPERIMENT_DEFAULTS`);
            unknown keys are rejected.
    """
    from .. import experiments as exp

    unknown = sorted(set(options) - set(EXPERIMENT_DEFAULTS))
    if unknown:
        raise TypeError(f"unknown experiment options: {', '.join(unknown)}")
    opts = {**EXPERIMENT_DEFAULTS, **options}

    table = {
        "fig1a": lambda: exp.run_fig1a(with_spice=opts["spice"]),
        "fig1b": lambda: exp.run_fig1b(),
        "fig3": lambda: exp.run_fig3(seed=opts["seed"]),
        "sec31": lambda: exp.run_latency_breakdown(seed=opts["seed"]),
        "fig4": lambda: exp.run_fig4(
            duration_seconds=opts["duration"],
            benchmarks=opts["benchmarks"] or None,
            nbits=opts["nbits"],
            seed=opts["seed"],
            runner=runner,
        ),
        "fig5": lambda: exp.run_fig5(),
        "table1": lambda: exp.run_table1(with_spice=opts["spice"]),
        "table2": lambda: exp.run_table2(),
        "ablation-nbits": lambda: exp.run_nbits_ablation(seed=opts["seed"]),
        "ablation-guard": lambda: exp.run_guard_ablation(seed=opts["seed"]),
        "ablation-geometry": lambda: exp.run_geometry_ablation(),
        "ablation-bins": lambda: exp.run_bins_ablation(seed=opts["seed"]),
        "sensitivity": lambda: exp.run_sensitivity(),
        "rank": lambda: exp.run_rank_comparison(seed=opts["seed"], runner=runner),
        "validate": lambda: exp.run_validation(),
        "baselines": lambda: exp.run_baseline_comparison(
            duration_seconds=opts["duration"], seed=opts["seed"], runner=runner
        ),
        "mechanisms": lambda: exp.run_mechanism_matrix(
            **(
                {"mechanisms": opts["mechanisms"]} if opts["mechanisms"] else {}
            ),
            **(
                {"benchmarks": opts["benchmarks"]} if opts["benchmarks"] else {}
            ),
            # The merged-chain engine no longer needs a short horizon
            # for speed; the cap stays only so the committed
            # `mechanisms` output digests keep their 0.2 s cells.
            duration_seconds=min(opts["duration"], 0.2),
            nbits=opts["nbits"],
            seed=opts["seed"],
            runner=runner,
        ),
        "temperature": lambda: exp.run_temperature_study(
            seed=opts["seed"], runner=runner
        ),
        "calibrate": lambda: exp.run_calibration_study(runner=runner),
        "performance": lambda: exp.run_performance_study(
            duration_seconds=min(opts["duration"], 0.5),
            benchmarks=opts["benchmarks"] or None,
            seed=opts["seed"],
            runner=runner,
        ),
    }
    if name not in table:
        raise KeyError(
            f"unknown experiment {name!r}; registered: {sorted(table)}"
        )
    return table[name]()


def experiment_names() -> list[str]:
    """Registered verbs (CLI ``choices`` order)."""
    return list(EXPERIMENT_NAMES)


def experiment_options(options: Mapping[str, Any]) -> dict[str, Any]:
    """Project a CLI-args-style mapping onto the registry option names."""
    return {k: options[k] for k in EXPERIMENT_DEFAULTS if k in options}
