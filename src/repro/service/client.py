"""The sweep boundary every driver hands its cells to.

:meth:`LocalClient.sweep` runs a block of
:class:`~repro.runner.cells.Cell` objects through its
:class:`~repro.runner.executor.ExperimentRunner` on the calling thread
and returns the runner's :class:`~repro.runner.executor.RunReport`
unchanged: ``results`` (payloads in cell order, ``None`` where a cell
failed), ``failures``, ``outcomes`` and ``notes()`` are what the
drivers read.

Because the sweep runs where it was called, the runner's interrupt
contract holds end to end: Ctrl-C or SIGTERM flushes an
``"interrupted"`` manifest that ``--resume`` picks back up.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..runner import Cell, ExperimentRunner, RunReport


class LocalClient:
    """In-process sweep client around one experiment runner.

    Args:
        runner: the executor every sweep runs through; defaults to a
            serial, uncached one (bit-identical results either way).
    """

    def __init__(self, runner: Optional[ExperimentRunner] = None):
        self.runner = runner if runner is not None else ExperimentRunner()

    def sweep(self, cells: Sequence[Cell], experiment: str = "") -> RunReport:
        """Run a block of cells; the runner's report, in input order."""
        return self.runner.run(cells, experiment=experiment)
