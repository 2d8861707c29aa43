"""The query layer: typed sweep requests and the experiment registry.

Everything that runs experiments — the sweep drivers, the ``vrl-dram``
CLI, the examples — goes through this package:

* :mod:`~repro.service.schema` — the typed :class:`Query` request
  schema, canonically hashable into the same keyspace as the on-disk
  :class:`~repro.runner.cache.ResultCache`;
* :mod:`~repro.service.client` — :class:`LocalClient`, which runs a
  block of queries through an
  :class:`~repro.runner.executor.ExperimentRunner` on the calling
  thread and returns its :class:`~repro.runner.executor.RunReport`;
* :mod:`~repro.service.registry` — the experiment-verb dispatch table
  shared by the CLI and the examples.

Invariant 13 (``docs/architecture.md``): a driver's payloads through
:meth:`LocalClient.sweep` are bit-identical to
:meth:`~repro.runner.executor.ExperimentRunner.run` on the equivalent
cells, cold or warm, at any ``jobs``.
"""

from .client import LocalClient, driver_client
from .registry import (
    EXPERIMENT_DEFAULTS,
    EXPERIMENT_NAMES,
    SWEEP_EXPERIMENTS,
    experiment_names,
    experiment_options,
    run_experiment,
)
from .schema import KIND_PARAMS, Query

__all__ = [
    "EXPERIMENT_DEFAULTS",
    "EXPERIMENT_NAMES",
    "KIND_PARAMS",
    "LocalClient",
    "Query",
    "SWEEP_EXPERIMENTS",
    "driver_client",
    "experiment_names",
    "experiment_options",
    "run_experiment",
]
