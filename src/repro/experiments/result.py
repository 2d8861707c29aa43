"""Common result container for experiment drivers."""

from __future__ import annotations

import csv
import io
import locale
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence, Union


@dataclass
class ExperimentResult:
    """A formatted, machine-readable experiment outcome.

    Attributes:
        experiment_id: short identifier (``FIG4``, ``TAB1``, ...).
        title: human-readable headline.
        headers: column names of the result table.
        rows: table rows (tuples aligned with ``headers``).
        notes: free-form key/value findings (averages, paper-reference
            values, runtimes) surfaced below the table.
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: list[tuple]
    notes: dict[str, Any] = field(default_factory=dict)
    #: The ``notes`` keys :meth:`merge_notes` added (run telemetry).
    _merged: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    def merge_notes(self, extra: "dict[str, Any]") -> "ExperimentResult":
        """Fold additional key/value findings into ``notes`` (chainable).

        Used by the runner-backed drivers to attach run observability
        (cache hit rates, worker utilization, manifest path) to the
        scientific notes; existing keys win so experiment findings are
        never overwritten by telemetry.  The keys added here are shown
        by :meth:`format` but kept out of :meth:`to_csv`.
        """
        for key, value in extra.items():
            if key not in self.notes:
                self.notes[key] = value
                self._merged.add(key)
        return self

    def column(self, name: str) -> list:
        """Values of one column by header name."""
        try:
            index = list(self.headers).index(name)
        except ValueError as exc:
            raise KeyError(f"no column {name!r}; have {list(self.headers)}") from exc
        return [row[index] for row in self.rows]

    def format(self) -> str:
        """Render as an aligned text table with the notes appended."""
        headers = [str(h) for h in self.headers]
        str_rows = [[self._fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in str_rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        for key, value in self.notes.items():
            lines.append(f"{key}: {self._fmt(value)}")
        return "\n".join(lines)

    def to_csv(self, path: Union[str, Path]) -> None:
        """Write the result table as CSV (headers + rows, result notes as
        comments), rewriting the file only when its bytes change.

        Notes are emitted as leading ``#`` comment lines so the data
        rows stay machine-readable while the context travels with them.
        The run telemetry folded in by :meth:`merge_notes` (cache
        counts, wall time, manifest path) is left out: it changes on
        every run, and it is printed by :meth:`format` and kept in the
        run manifest.  So an unchanged result renders the same bytes,
        and a file that already holds them is not rewritten.
        """
        buffer = io.StringIO(newline="")
        buffer.write(f"# {self.experiment_id}: {self.title}\n")
        for key, value in self.notes.items():
            if key not in self._merged:
                buffer.write(f"# {key}: {self._fmt(value)}\n")
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        for row in self.rows:
            writer.writerow([self._fmt(v) for v in row])
        data = buffer.getvalue().encode(locale.getpreferredencoding(False))
        path = Path(path)
        try:
            with path.open("rb") as fh:
                if fh.read() == data:
                    return
        except OSError:
            pass
        with path.open("wb") as fh:
            fh.write(data)

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.format()
