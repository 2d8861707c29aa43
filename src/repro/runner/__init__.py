"""Parallel, cached experiment execution (the ``vrl-dram`` run layer).

The experiment sweeps of the reproduction — Fig. 4, the performance /
rank / baseline / temperature studies — are grids of independent cells
(one ``(workload, policy)`` or ``(mode)`` or ``(temperature)`` point
each).  This package runs such grids:

* :class:`~repro.runner.cells.Cell` — one picklable, hashable cell
  recipe (kind + JSON-primitive params), built from typed fields by
  :meth:`~repro.runner.cells.Cell.of` against the kind's one
  :class:`~repro.runner.cells.CellKind` entry in
  :data:`~repro.runner.cells.CELL_KINDS`;
* :class:`~repro.runner.cache.ResultCache` — content-addressed on-disk
  result store keyed by :func:`~repro.runner.cache.cache_key` over
  (cell kind, full parameter set, package version, the kind's
  payload-layout version);
* :class:`~repro.runner.executor.ExperimentRunner` — cache-first
  executor fanning misses out over a process pool, reporting per-cell
  wall time, hit/miss counters and worker utilization in a
  :class:`~repro.runner.executor.RunReport`;
* :mod:`~repro.runner.manifest` — ``runs/<timestamp>.json`` manifests
  plus ``.checkpoint.jsonl`` incremental checkpoints for resume;
* :mod:`~repro.runner.errors` — the structured
  :class:`~repro.runner.errors.CellError` failure taxonomy
  (``exception`` / ``timeout`` / ``worker-crash``).

Guarantees: payloads are independent of ``jobs``, cache state, retries,
and pool respawns — the parallel cached run of a sweep is bit-identical
to the serial cold run (asserted by ``tests/test_runner_executor.py``);
and one failing cell never aborts the sweep — it surfaces as a failed
:class:`~repro.runner.executor.CellOutcome` while every other payload
completes (asserted by ``tests/test_runner_faults.py``).
"""

from .cache import CACHE_SCHEMA, ResultCache, cache_key, canonical_json
from .cells import (
    CELL_KINDS,
    Cell,
    CellKind,
    compute_cell,
    tech_params,
)
from .errors import ERROR_KINDS, CellError
from .executor import CellOutcome, ExperimentRunner, RunReport
from .manifest import (
    MANIFEST_SCHEMA,
    CheckpointWriter,
    latest_manifest,
    load_checkpoint,
    load_manifest,
    resolve_resume_source,
    write_manifest,
)

__all__ = [
    "CACHE_SCHEMA",
    "CELL_KINDS",
    "Cell",
    "CellError",
    "CellKind",
    "CellOutcome",
    "CheckpointWriter",
    "ERROR_KINDS",
    "ExperimentRunner",
    "MANIFEST_SCHEMA",
    "ResultCache",
    "RunReport",
    "cache_key",
    "canonical_json",
    "compute_cell",
    "latest_manifest",
    "load_checkpoint",
    "load_manifest",
    "resolve_resume_source",
    "tech_params",
    "write_manifest",
]
