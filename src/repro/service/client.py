"""The sweep client every driver talks to.

:class:`LocalClient` lowers a block of typed
:class:`~repro.service.schema.Query` objects to runner cells and runs
them through its :class:`~repro.runner.executor.ExperimentRunner` on the
calling thread.  :meth:`LocalClient.sweep` returns the runner's
:class:`~repro.runner.executor.RunReport` unchanged: ``results``
(payloads in query order, ``None`` where a cell failed), ``failures``,
``outcomes`` and ``notes()`` are what the drivers read.

Because the sweep runs where it was called, the runner's interrupt
contract holds end to end: Ctrl-C or SIGTERM flushes an
``"interrupted"`` manifest that ``--resume`` picks back up.

:func:`driver_client` is the drivers' entry: it normalizes the
``client=`` / ``runner=`` keyword pair into a client, building a
serial uncached one when given neither.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..runner import ExperimentRunner, RunReport
from .schema import Query


class LocalClient:
    """In-process sweep client around one experiment runner.

    Args:
        runner: the executor every sweep runs through; defaults to a
            serial, uncached one (bit-identical results either way).
    """

    def __init__(self, runner: Optional[ExperimentRunner] = None):
        self.runner = runner if runner is not None else ExperimentRunner()

    def sweep(self, queries: Sequence[Query], experiment: str = "") -> RunReport:
        """Run a block of queries; the runner's report, in input order."""
        return self.runner.run([q.to_cell() for q in queries], experiment=experiment)

    def __enter__(self) -> "LocalClient":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


def driver_client(
    client: Optional[LocalClient] = None, runner: Optional[ExperimentRunner] = None
) -> LocalClient:
    """Normalize the drivers' ``client=`` / ``runner=`` pair.

    An explicit client wins; a bare runner is wrapped in a fresh
    client; neither builds a serial uncached default.  (Passing both
    is a caller bug.)
    """
    if client is not None:
        if runner is not None:
            raise ValueError("pass either client= or runner=, not both")
        return client
    return LocalClient(runner)
