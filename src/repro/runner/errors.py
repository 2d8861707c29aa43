"""Structured error taxonomy for sweep-cell failures.

A fault-tolerant sweep never lets one bad cell abort the grid; instead
the failing cell's outcome carries a :class:`CellError` describing what
went wrong, precisely enough to triage offline from the run manifest:

* ``kind`` — which failure class (see :data:`ERROR_KINDS`):

  - ``"exception"``: the cell's compute function raised (solver
    :class:`~repro.circuit.solver.ConvergenceError`, a finite-value
    guard's :class:`~repro.guard.NumericalError`, bad parameters, ...);
  - ``"timeout"``: the cell exceeded the runner's per-cell wall-clock
    budget and its worker was reaped by the watchdog;
  - ``"worker-crash"``: the worker process died without reporting
    (OOM kill, segfault) and the pool had to be respawned.

* ``exception_type`` / ``message`` / ``traceback`` — the original
  Python error, preserved verbatim across the process boundary;
* ``attempts`` — how many times the cell was tried before giving up
  (1 means it failed on the first and only attempt);
* ``key`` — the cell's content-address (params hash), so a failed cell
  can be matched against caches, checkpoints, and re-runs;
* ``diagnostics`` — structured payloads extracted from exceptions that
  carry them: a solver :class:`~repro.circuit.rescue.ConvergenceError`
  contributes its full rescue-ladder
  :class:`~repro.circuit.rescue.ConvergenceReport` under
  ``"convergence"``, and a :class:`~repro.guard.NumericalError`
  contributes its boundary/array/index record under ``"numerical"`` —
  both survive the JSON roundtrip into checkpoints and manifests.
"""

from __future__ import annotations

import traceback as _traceback
from dataclasses import dataclass, field
from typing import Any

#: The failure classes a cell outcome can report.
ERROR_KINDS = ("exception", "timeout", "worker-crash")


@dataclass
class CellError:
    """Why one sweep cell failed (attached to a failed ``CellOutcome``).

    Attributes:
        kind: failure class, one of :data:`ERROR_KINDS`.
        cell_kind: the cell's registered compute kind.
        label: the cell's human-readable label.
        key: the cell's cache key (params hash).
        exception_type: qualified name of the raised exception type
            (empty for non-exception kinds such as worker crashes).
        message: the exception message, or a synthetic description for
            timeouts / crashes.
        traceback: formatted traceback when one is available.
        attempts: total attempts made (initial try + retries).
        diagnostics: structured payloads from diagnostics-bearing
            exceptions (``"convergence"`` for rescue-ladder reports,
            ``"numerical"`` for finite-value guard records); empty for
            exceptions that carry none.
    """

    kind: str
    cell_kind: str = ""
    label: str = ""
    key: str = ""
    exception_type: str = ""
    message: str = ""
    traceback: str = ""
    attempts: int = 1
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ERROR_KINDS:
            raise ValueError(
                f"unknown error kind {self.kind!r}; expected one of {ERROR_KINDS}"
            )

    @classmethod
    def from_exception(
        cls,
        exc: BaseException,
        *,
        cell_kind: str = "",
        label: str = "",
        key: str = "",
        attempts: int = 1,
        kind: str = "exception",
    ) -> "CellError":
        """Capture a raised exception (type, message, traceback).

        Diagnostics-bearing exceptions contribute structured payloads:
        a ``report`` attribute with ``to_dict`` (solver convergence
        reports) lands under ``"convergence"``; a ``boundary``
        attribute with ``to_dict`` (finite-value guard errors) lands
        under ``"numerical"``.
        """
        tb = "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        diagnostics: dict[str, Any] = {}
        report = getattr(exc, "report", None)
        if report is not None and hasattr(report, "to_dict"):
            diagnostics["convergence"] = report.to_dict()
        if hasattr(exc, "boundary") and hasattr(exc, "to_dict"):
            diagnostics["numerical"] = exc.to_dict()
        return cls(
            kind=kind,
            cell_kind=cell_kind,
            label=label,
            key=key,
            exception_type=type(exc).__name__,
            message=str(exc),
            traceback=tb,
            attempts=attempts,
            diagnostics=diagnostics,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON form for manifests and checkpoints."""
        return {
            "kind": self.kind,
            "cell_kind": self.cell_kind,
            "label": self.label,
            "key": self.key,
            "exception_type": self.exception_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "diagnostics": self.diagnostics,
        }

    def summary(self) -> str:
        """One-line description for notes and logs."""
        what = self.exception_type or self.kind
        where = self.label or self.cell_kind or self.key[:12]
        text = f"{where}: {what}"
        if self.message:
            first = self.message.splitlines()[0]
            text += f" ({first})"
        if self.attempts > 1:
            text += f" after {self.attempts} attempts"
        return text
