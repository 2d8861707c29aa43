"""The sweep boundary and the experiment registry.

* :mod:`~repro.service.client` — :class:`LocalClient`, which runs a
  block of :class:`~repro.runner.cells.Cell` objects through an
  :class:`~repro.runner.executor.ExperimentRunner` on the calling
  thread and returns its :class:`~repro.runner.executor.RunReport`;
  every sweep driver hands its cells to it;
* :mod:`~repro.service.registry` — the experiment-verb dispatch table
  shared by the CLI and the examples.

Invariant 13 (``docs/architecture.md``): a driver's payloads, given a
``runner=``, are bit-identical to
:meth:`~repro.runner.executor.ExperimentRunner.run` on the same cells,
cold or warm, at any ``jobs``.
"""

from .client import LocalClient
from .registry import (
    EXPERIMENT_DEFAULTS,
    EXPERIMENT_NAMES,
    experiment_names,
    experiment_options,
    run_experiment,
)

__all__ = [
    "EXPERIMENT_DEFAULTS",
    "EXPERIMENT_NAMES",
    "LocalClient",
    "experiment_names",
    "experiment_options",
    "run_experiment",
]
