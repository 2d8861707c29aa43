"""The sweep boundary.

:class:`LocalClient` (:mod:`~repro.service.client`) runs a block of
:class:`~repro.runner.cells.Cell` objects through an
:class:`~repro.runner.executor.ExperimentRunner` on the calling thread
and returns its :class:`~repro.runner.executor.RunReport`; every sweep
driver hands its cells to it.  The verb table lives beside the CLI
parser (:data:`repro.experiments.cli.VERBS`).

Invariant 13 (``docs/architecture.md``): a driver's payloads, given a
``runner=``, are bit-identical to
:meth:`~repro.runner.executor.ExperimentRunner.run` on the same cells,
cold or warm, at any ``jobs``.
"""

from .client import LocalClient

__all__ = ["LocalClient"]
