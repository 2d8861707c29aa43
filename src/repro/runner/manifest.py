"""Run manifests: one JSON observability record per runner invocation.

Every :class:`~repro.runner.executor.ExperimentRunner` run can persist a
manifest to ``<runs_dir>/<stamp>.json`` capturing what was computed,
what came from cache, and how the workers were used.  ``<stamp>`` is
the run's UTC start time (:func:`run_stamp`), so a run's manifest and
its checkpoint share one stem.  Manifests are compact one-line JSON
(``python -m json.tool <manifest>`` pretty-prints one); laid out, a
record reads:

```json
{
  "schema": 1,
  "experiment": "fig4",
  "version": "1.0.0",
  "status": "complete",
  "started_at": "2026-08-06T12:00:00.123456+00:00",
  "elapsed_seconds": 1.94,
  "jobs": 4,
  "cells": [
    {"label": "vrl/canneal", "kind": "refresh-overhead",
     "key": "6a9c…", "status": "ok", "cache_hit": false,
     "wall_seconds": 0.41, "worker": "12345", "attempts": 1},
    ...
  ],
  "failures": [],
  "checkpoint": "runs/20260806T120000.123456.checkpoint.jsonl",
  "cache": {"hits": 0, "misses": 36, "hit_rate": 0.0, "discarded": 0,
            "dir": "…"},
  "workers": {"jobs": 4, "busy_seconds": 6.1, "utilization": 0.79}
}
```

``status`` is ``"complete"`` for a run that processed every cell
(failed cells included — they appear in ``failures`` with their
structured :class:`~repro.runner.errors.CellError`), or
``"interrupted"`` for a partial manifest flushed on SIGINT/SIGTERM.

The file doubles as the machine-readable audit trail for the golden /
equivalence tests: a warm re-run of an unchanged sweep must show a
``hit_rate`` above 0.9.  ``cache.discarded`` counts the corrupt cache
entries the run found and deleted (each one also counts as a miss).

## Checkpoints

Alongside the end-of-run manifest, a run that computes at least one
cell streams an incremental checkpoint — one JSON line per completed
cell, **payload included**: first its cache hits, then each computed
cell as it finishes — to ``<runs_dir>/<stamp>.checkpoint.jsonl`` (see
:class:`CheckpointWriter`).  A run served entirely from cache has
nothing to resume, writes no checkpoint, and records ``"checkpoint":
null``.  Because lines are flushed as cells finish,
a crash or Ctrl-C loses at most the in-flight cells; a later run armed
with ``ExperimentRunner(resume_from=...)`` / ``vrl-dram --resume``
replays the checkpoint (:func:`load_checkpoint`) and recomputes only
what is missing.  ``resolve_resume_source`` accepts either the manifest
(following its ``checkpoint`` field) or the ``.jsonl`` file directly.
A torn final line — the signature of a mid-write kill — is ignored.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Optional, TextIO, Union

#: Bumped when the manifest layout changes.
MANIFEST_SCHEMA = 1


def run_stamp(started_at: str) -> str:
    """The file stem of a run: its ISO start time as ``YYYYmmddTHHMMSS.ffffff``.

    The manifest and the checkpoint of one run are both named from the
    run's ``started_at``, so they share this stem.
    """
    started = datetime.fromisoformat(started_at).astimezone(timezone.utc)
    return started.strftime("%Y%m%dT%H%M%S.%f")


def write_manifest(runs_dir: Union[str, Path], record: Mapping[str, Any]) -> Path:
    """Write one run record as ``<runs_dir>/<stamp>.json``.

    The stem is the record's ``started_at`` (:func:`run_stamp`, UTC,
    microsecond precision).  The file is created exclusively, so two
    runs that share a stamp never overwrite each other: the later one
    takes the first free ``<stamp>-N.json``.  The runs directory is
    created only when it is missing.  The JSON is compact, which lets
    CPython use its C encoder.
    """
    runs_dir = Path(runs_dir)
    stamp = run_stamp(record["started_at"])
    text = json.dumps({"schema": MANIFEST_SCHEMA, **record})
    try:
        return _create_new(runs_dir, stamp, text)
    except FileNotFoundError:
        runs_dir.mkdir(parents=True, exist_ok=True)
        return _create_new(runs_dir, stamp, text)


def _create_new(runs_dir: Path, stamp: str, text: str) -> Path:
    """Write ``text`` to the first of ``<stamp>.json``, ``<stamp>-1.json``,
    ... that does not exist yet, creating it exclusively."""
    suffix = 0
    while True:
        path = runs_dir / (f"{stamp}-{suffix}.json" if suffix else f"{stamp}.json")
        try:
            with path.open("x") as fh:
                fh.write(text)
            return path
        except FileExistsError:
            suffix += 1


def load_manifest(path: Union[str, Path]) -> dict:
    """Parse a manifest file back into a dict (schema-checked)."""
    record = json.loads(Path(path).read_text())
    if record.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"{path}: unsupported manifest schema {record.get('schema')!r}"
        )
    return record


def latest_manifest(runs_dir: Union[str, Path]) -> Path:
    """The newest manifest in ``runs_dir`` (by filename, i.e. timestamp)."""
    runs_dir = Path(runs_dir)
    candidates = sorted(runs_dir.glob("*.json"))
    if not candidates:
        raise FileNotFoundError(f"no manifests in {runs_dir}")
    return candidates[-1]


# --------------------------------------------------------------------- #
# Incremental checkpoints                                                #
# --------------------------------------------------------------------- #


class CheckpointWriter:
    """Streams completed cell outcomes to a ``.checkpoint.jsonl`` file.

    One JSON object per line, flushed after every record, so a killed
    run loses at most the cells that were still in flight.  The file is
    opened lazily on the first record — a sweep served entirely from an
    unwritable location never creates it.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh: Optional[TextIO] = None
        self.records = 0

    def append(self, record: Mapping[str, Any]) -> None:
        """Persist one completed-cell record (flushed immediately)."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a")
        self._fh.write(json.dumps(dict(record)) + "\n")
        self._fh.flush()
        self.records += 1

    def close(self) -> None:
        """Fsync and close the checkpoint file (idempotent)."""
        if self._fh is not None:
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except OSError:  # pragma: no cover - fsync best effort
                pass
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_checkpoint(path: Union[str, Path]) -> dict[str, dict]:
    """Completed cells of a checkpoint, keyed by cache key.

    Only successful records (``"status" == "ok"`` with a payload) are
    returned — failed cells must be recomputed on resume.  Torn or
    unparseable lines (a kill mid-write) are skipped, and a later record
    for the same key wins, so re-running an interrupted run against the
    same checkpoint file stays consistent.
    """
    completed: dict[str, dict] = {}
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (
                isinstance(record, dict)
                and record.get("status") == "ok"
                and isinstance(record.get("key"), str)
                and "payload" in record
            ):
                completed[record["key"]] = record
    return completed


def resolve_resume_source(path: Union[str, Path]) -> Path:
    """The checkpoint file behind ``path`` (manifest or checkpoint).

    ``--resume`` accepts either the run manifest (whose ``checkpoint``
    field names the jsonl file) or the ``.jsonl`` checkpoint itself.
    Raises ``FileNotFoundError`` / ``ValueError`` with one-line messages
    suitable for direct CLI display.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"resume source {path} does not exist")
    if path.suffix == ".jsonl":
        return path
    record = load_manifest(path)
    checkpoint = record.get("checkpoint")
    if not checkpoint:
        raise ValueError(
            f"{path}: manifest has no checkpoint to resume from "
            "(the run computed no cell, or had no runs dir)"
        )
    checkpoint_path = Path(checkpoint)
    if not checkpoint_path.is_absolute():
        checkpoint_path = path.parent / checkpoint_path.name
    if not checkpoint_path.exists():
        raise FileNotFoundError(
            f"checkpoint {checkpoint_path} referenced by {path} does not exist"
        )
    return checkpoint_path
