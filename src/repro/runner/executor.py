"""Process-pool experiment executor with cache-aware, fault-tolerant scheduling.

:class:`ExperimentRunner` takes a list of independent sweep
:class:`~repro.runner.cells.Cell` recipes and produces their payloads:

1. every cell's cache key is computed and the on-disk
   :class:`~repro.runner.cache.ResultCache` (if any) and the resume
   checkpoint (if any) are consulted;
2. the misses are computed — inline for ``jobs <= 1`` (bit-identical to
   the historical serial drivers), or fanned out over a
   ``ProcessPoolExecutor`` otherwise;
3. fresh results are written back to the cache *and* streamed to an
   incremental checkpoint as each cell finishes (after the run's hits,
   so a resume replays both; a run with no miss writes no checkpoint),
   and a
   :class:`RunReport` collects per-cell wall time, hit/miss counters,
   failures, and worker utilization — surfaced in
   ``ExperimentResult.notes`` and persisted as a
   ``runs/<stamp>.json`` manifest.

Fault tolerance (see ``docs/architecture.md`` for the full semantics):

* a raising cell yields a **failed** :class:`CellOutcome` carrying a
  structured :class:`~repro.runner.errors.CellError` — the rest of the
  sweep completes and every finished payload is preserved;
* ``retries`` re-attempts failing cells with exponential backoff
  (``backoff_seconds * 2**(attempt-1)``);
* ``cell_timeout`` arms a watchdog that reaps workers stuck past the
  per-cell wall-clock budget (pool mode only — an inline run has no
  worker to kill);
* a dead worker (OOM kill, segfault) breaks the pool; the runner
  respawns it and re-submits the in-flight cells;
* SIGINT/SIGTERM unwind gracefully: completed outcomes are flushed to
  a partial manifest marked ``"status": "interrupted"`` whose
  checkpoint a later ``resume_from=`` run picks up, recomputing only
  the unfinished cells.

The tests rehearse these paths by wrapping :func:`compute_cell`, the
module-level name :func:`_compute_timed` looks up in every process.

Determinism: cells are self-contained recipes, so the payloads do not
depend on ``jobs``, cache state, retries, or pool respawns; the
report's ordering always matches the input cell order.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, CancelledError, Future, wait
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

from .cache import ResultCache, cache_key
from .cells import Cell, compute_cell
from .errors import CellError
from .manifest import (
    CheckpointWriter,
    load_checkpoint,
    resolve_resume_source,
    run_stamp,
    write_manifest,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: How long the pool loop blocks in ``wait`` before re-checking the
#: watchdog and the submission queue.
_POLL_SECONDS = 0.2


def _compute_timed(kind: str, params: dict) -> tuple[dict, float, str]:
    """Worker entry point: payload, wall seconds, and worker id (pid)."""
    t0 = time.perf_counter()
    payload = compute_cell(kind, params)
    return payload, time.perf_counter() - t0, str(os.getpid())


@dataclass
class CellOutcome:
    """What happened to one cell during a run.

    ``payload`` is ``None`` — and ``error`` describes why — when the
    cell failed every attempt; :attr:`ok` distinguishes the two.
    """

    label: str
    kind: str
    key: str
    payload: Optional[dict]
    wall_seconds: float
    cache_hit: bool
    worker: str
    attempts: int = 1
    error: Optional[CellError] = None

    @property
    def ok(self) -> bool:
        """Did the cell produce a payload?"""
        return self.error is None

    def manifest_entry(self) -> dict:
        """The cell's row in the run manifest (payload omitted for size)."""
        entry = {
            "label": self.label,
            "kind": self.kind,
            "key": self.key,
            "status": "ok" if self.ok else "failed",
            "cache_hit": self.cache_hit,
            "wall_seconds": round(self.wall_seconds, 6),
            "worker": self.worker,
            "attempts": self.attempts,
        }
        if self.error is not None:
            entry["error"] = {
                "kind": self.error.kind,
                "exception_type": self.error.exception_type,
                "message": self.error.message,
            }
            if self.error.diagnostics:
                entry["error"]["diagnostics"] = self.error.diagnostics
        return entry

    def checkpoint_entry(self) -> dict:
        """The cell's line in the incremental checkpoint (payload kept)."""
        record = self.manifest_entry()
        if self.ok:
            record["payload"] = self.payload
        else:
            record["error"] = self.error.to_dict()
        return record


@dataclass
class RunReport:
    """Aggregate outcome of one runner invocation.

    ``outcomes`` is ordered like the input cells; ``results`` exposes
    just the payloads in the same order (``None`` where a cell failed
    every attempt).  ``status`` is ``"complete"`` unless the run was
    interrupted mid-sweep.  ``cache_discarded`` counts the corrupt cache
    entries this run's lookups deleted.
    """

    experiment: str
    jobs: int
    outcomes: list[CellOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    started_at: str = ""
    cache_dir: Optional[str] = None
    cache_discarded: int = 0
    manifest_path: Optional[Path] = None
    checkpoint_path: Optional[Path] = None
    status: str = "complete"

    @property
    def results(self) -> list[Optional[dict]]:
        """Cell payloads in input order (``None`` for failed cells)."""
        return [outcome.payload for outcome in self.outcomes]

    @property
    def failures(self) -> list[CellOutcome]:
        """The outcomes that exhausted their attempts without a payload."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def cache_hits(self) -> int:
        """Number of cells served from the result cache (or checkpoint)."""
        return sum(1 for o in self.outcomes if o.cache_hit)

    @property
    def cache_misses(self) -> int:
        """Number of cells that had to be computed."""
        return len(self.outcomes) - self.cache_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of cells served from cache (0 with no cells)."""
        return self.cache_hits / len(self.outcomes) if self.outcomes else 0.0

    @property
    def busy_seconds(self) -> float:
        """Total compute time across workers (cache hits cost ~nothing)."""
        return sum(o.wall_seconds for o in self.outcomes if not o.cache_hit)

    @property
    def worker_utilization(self) -> float:
        """Busy time / (wall time x workers); 0 when nothing was computed."""
        if self.elapsed_seconds <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.elapsed_seconds * self.jobs))

    def notes(self) -> dict[str, Any]:
        """Observability key/values for ``ExperimentResult.notes``."""
        slowest = max(self.outcomes, key=lambda o: o.wall_seconds, default=None)
        notes: dict[str, Any] = {
            "runner": (
                f"{len(self.outcomes)} cells, jobs={self.jobs}, "
                f"{self.cache_hits} cached / {self.cache_misses} computed, "
                f"{self.elapsed_seconds:.2f}s wall, "
                f"utilization {100 * self.worker_utilization:.0f}%"
            ),
        }
        failures = self.failures
        if failures:
            shown = ", ".join(o.error.summary() for o in failures[:3])
            if len(failures) > 3:
                shown += f", ... ({len(failures) - 3} more)"
            notes["runner failures"] = (
                f"{len(failures)}/{len(self.outcomes)} cells failed: {shown}"
            )
        if slowest is not None:
            notes["runner slowest cell"] = (
                f"{slowest.label or slowest.kind} ({slowest.wall_seconds:.2f}s)"
            )
        if self.manifest_path is not None:
            notes["runner manifest"] = str(self.manifest_path)
        return notes

    def manifest_record(self) -> dict:
        """The full run record persisted by :func:`write_manifest`."""
        from .. import __version__

        return {
            "experiment": self.experiment,
            "version": __version__,
            "status": self.status,
            "started_at": self.started_at,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "jobs": self.jobs,
            "cells": [o.manifest_entry() for o in self.outcomes],
            "failures": [o.error.to_dict() for o in self.failures],
            "checkpoint": (
                str(self.checkpoint_path) if self.checkpoint_path is not None else None
            ),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": round(self.hit_rate, 4),
                "discarded": self.cache_discarded,
                "dir": self.cache_dir,
            },
            "workers": {
                "jobs": self.jobs,
                "busy_seconds": round(self.busy_seconds, 6),
                "utilization": round(self.worker_utilization, 4),
            },
        }


@dataclass
class _Task:
    """Book-keeping for one cache-miss cell while it is being computed."""

    index: int  # position in the input cell list
    attempts: int = 0  # failed attempts so far
    not_before: float = 0.0  # backoff gate (monotonic clock)
    started_at: float = 0.0  # last submission time (watchdog clock)
    timed_out: bool = False  # marked overdue by the watchdog


class ExperimentRunner:
    """Cache-backed, optionally parallel, fault-tolerant executor.

    Args:
        jobs: worker processes; ``<= 1`` computes inline in this
            process, ``0`` means one per CPU.
        cache: result cache, or ``None`` to always recompute.
        runs_dir: directory for ``<timestamp>.json`` run manifests and
            ``.checkpoint.jsonl`` incremental checkpoints, or ``None``
            to skip writing them.
        retries: extra attempts per failing cell beyond the first
            (default 0: fail fast, but still never abort the sweep).
        backoff_seconds: base of the exponential retry backoff.
        cell_timeout: per-cell wall-clock budget in seconds; a worker
            exceeding it is killed and the cell retried (pool mode
            only).  ``None`` disables the watchdog.
        resume_from: a previous run's manifest (or ``.checkpoint.jsonl``)
            whose completed cells are reused instead of recomputed.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        runs_dir: Optional[Union[str, Path]] = None,
        retries: int = 0,
        backoff_seconds: float = 0.5,
        cell_timeout: Optional[float] = None,
        resume_from: Optional[Union[str, Path]] = None,
    ):
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_seconds < 0:
            raise ValueError(f"backoff_seconds must be >= 0, got {backoff_seconds}")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be > 0, got {cell_timeout}")
        self.jobs = jobs if jobs > 0 else (os.cpu_count() or 1)
        self.cache = cache
        self.runs_dir = Path(runs_dir) if runs_dir is not None else None
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        self.cell_timeout = cell_timeout
        self.resume_from = Path(resume_from) if resume_from is not None else None

    def run(self, cells: Sequence[Cell], experiment: str = "") -> RunReport:
        """Execute every cell (checkpoint, then cache, then compute).

        Payloads are returned in input order regardless of completion
        order, and are identical for any ``jobs``/cache/retry
        configuration.  A cell that fails every attempt yields a failed
        outcome (``payload=None``) rather than aborting the sweep; a
        ``KeyboardInterrupt`` (Ctrl-C or SIGTERM) flushes the completed
        outcomes to an ``"interrupted"`` manifest before propagating.
        """
        started = datetime.now(timezone.utc)
        t0 = time.perf_counter()
        report = RunReport(
            experiment=experiment,
            jobs=self.jobs,
            started_at=started.isoformat(),
            cache_dir=str(self.cache.directory) if self.cache is not None else None,
        )

        resumed: dict[str, dict] = {}
        if self.resume_from is not None:
            resumed = load_checkpoint(resolve_resume_source(self.resume_from))

        checkpoint: Optional[CheckpointWriter] = None
        if self.runs_dir is not None:
            checkpoint = CheckpointWriter(
                self.runs_dir / f"{run_stamp(report.started_at)}.checkpoint.jsonl"
            )

        keys = [cache_key(cell.kind, cell.params) for cell in cells]
        outcomes: list[Optional[CellOutcome]] = [None] * len(cells)
        # Hits reach the checkpoint only once a miss makes the run
        # resumable: an all-hit run has nothing to resume.
        unwritten_hits: list[CellOutcome] = []

        def checkpoint_hits() -> None:
            """Append the held-back hits (input order) to the checkpoint."""
            if checkpoint is not None:
                for outcome in unwritten_hits:
                    checkpoint.append(outcome.checkpoint_entry())
            unwritten_hits.clear()

        def complete(index: int, outcome: CellOutcome) -> None:
            """Record one computed cell: slot, cache, checkpoint."""
            outcomes[index] = outcome
            if outcome.ok and self.cache is not None:
                self.cache.put(
                    outcome.key,
                    outcome.payload,
                    meta={"label": outcome.label, "kind": outcome.kind},
                )
            if checkpoint is not None:
                checkpoint.append(outcome.checkpoint_entry())

        discarded_before = self.cache.discarded if self.cache is not None else 0
        previous_sigterm = self._install_sigterm_handler()
        try:
            misses: list[int] = []
            for index, (cell, key) in enumerate(zip(cells, keys)):
                t_cell = time.perf_counter()
                payload: Optional[dict] = None
                worker = "cache"
                if key in resumed:
                    payload = resumed[key]["payload"]
                    worker = "resume"
                elif self.cache is not None:
                    payload = self.cache.get(key)
                if payload is not None:
                    outcomes[index] = CellOutcome(
                        label=cell.label,
                        kind=cell.kind,
                        key=key,
                        payload=payload,
                        wall_seconds=time.perf_counter() - t_cell,
                        cache_hit=True,
                        worker=worker,
                    )
                    unwritten_hits.append(outcomes[index])
                else:
                    misses.append(index)

            if misses:
                checkpoint_hits()
                self._compute_misses(cells, keys, misses, complete)
            else:
                unwritten_hits.clear()  # all hits: no checkpoint
        except KeyboardInterrupt:
            report.status = "interrupted"
            raise
        finally:
            self._restore_sigterm_handler(previous_sigterm)
            if checkpoint is not None:
                # A lookup pass cut short keeps the hits it found, so
                # the "interrupted" manifest stays resumable.
                checkpoint_hits()
                checkpoint.close()
                if checkpoint.records:
                    report.checkpoint_path = checkpoint.path
            report.outcomes = [o for o in outcomes if o is not None]
            if self.cache is not None:
                report.cache_discarded = self.cache.discarded - discarded_before
            report.elapsed_seconds = time.perf_counter() - t0
            if self.runs_dir is not None:
                try:
                    report.manifest_path = write_manifest(
                        self.runs_dir, report.manifest_record()
                    )
                except Exception:
                    # Never mask the interrupt with a manifest error;
                    # surface it on the normal path.
                    if report.status != "interrupted":
                        raise
        return report

    # ----------------------------------------------------------------- #
    # Signal handling                                                    #
    # ----------------------------------------------------------------- #

    _SIGTERM_NOT_INSTALLED = object()

    def _install_sigterm_handler(self):
        """Route SIGTERM through the KeyboardInterrupt flush path."""

        def _sigterm(signum, frame):  # pragma: no cover - signal timing
            raise KeyboardInterrupt("SIGTERM")

        try:
            return signal.signal(signal.SIGTERM, _sigterm)
        except ValueError:
            # Not the main thread (e.g. a test runner worker): the
            # KeyboardInterrupt path still works, only SIGTERM keeps
            # its default disposition.
            return self._SIGTERM_NOT_INSTALLED

    def _restore_sigterm_handler(self, previous) -> None:
        if previous is self._SIGTERM_NOT_INSTALLED:
            return
        try:
            signal.signal(signal.SIGTERM, previous)
        except (ValueError, TypeError):  # pragma: no cover
            pass

    # ----------------------------------------------------------------- #
    # Miss computation (inline / pool)                                   #
    # ----------------------------------------------------------------- #

    def _compute_misses(
        self,
        cells: Sequence[Cell],
        keys: Sequence[str],
        misses: Sequence[int],
        complete: Callable[[int, CellOutcome], None],
    ) -> None:
        """Compute the cache misses, inline or across the process pool."""
        if self.jobs <= 1 or (len(misses) == 1 and self.cell_timeout is None):
            self._compute_inline(cells, keys, misses, complete)
        else:
            self._compute_pool(cells, keys, misses, complete)

    def _fail_or_retry(
        self,
        task: _Task,
        cells: Sequence[Cell],
        keys: Sequence[str],
        exc: Optional[BaseException],
        kind: str,
        message: str,
        pending: list,
        complete: Callable[[int, CellOutcome], None],
    ) -> None:
        """One attempt failed: requeue with backoff or emit a failed outcome."""
        task.attempts += 1
        if task.attempts <= self.retries:
            task.not_before = time.monotonic() + self.backoff_seconds * (
                2 ** (task.attempts - 1)
            )
            pending.append(task)
            return
        cell = cells[task.index]
        if exc is not None:
            error = CellError.from_exception(
                exc,
                kind=kind,
                cell_kind=cell.kind,
                label=cell.label,
                key=keys[task.index],
                attempts=task.attempts,
            )
        else:
            error = CellError(
                kind=kind,
                cell_kind=cell.kind,
                label=cell.label,
                key=keys[task.index],
                message=message,
                attempts=task.attempts,
            )
        complete(
            task.index,
            CellOutcome(
                label=cell.label,
                kind=cell.kind,
                key=keys[task.index],
                payload=None,
                wall_seconds=0.0,
                cache_hit=False,
                worker="",
                attempts=task.attempts,
                error=error,
            ),
        )

    def _compute_inline(
        self,
        cells: Sequence[Cell],
        keys: Sequence[str],
        misses: Sequence[int],
        complete: Callable[[int, CellOutcome], None],
    ) -> None:
        """Serial in-process computation with per-cell retry/backoff.

        ``cell_timeout`` is not enforced here: there is no worker
        process to reap.
        """
        for index in misses:
            cell = cells[index]
            task = _Task(index=index)
            while True:
                try:
                    payload, wall, worker = _compute_timed(
                        cell.kind, dict(cell.params)
                    )
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    retry_queue: list = []
                    self._fail_or_retry(
                        task, cells, keys, exc, "exception", "", retry_queue, complete
                    )
                    if not retry_queue:
                        break  # failed for good; outcome recorded
                    delay = task.not_before - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                else:
                    complete(
                        index,
                        CellOutcome(
                            label=cell.label,
                            kind=cell.kind,
                            key=keys[index],
                            payload=payload,
                            wall_seconds=wall,
                            cache_hit=False,
                            worker=worker,
                            attempts=task.attempts + 1,
                        ),
                    )
                    break

    def _compute_pool(
        self,
        cells: Sequence[Cell],
        keys: Sequence[str],
        misses: Sequence[int],
        complete: Callable[[int, CellOutcome], None],
    ) -> None:
        """Fan the misses over a process pool, surviving crashes.

        The loop submits at most ``jobs`` cells at a time (so the
        watchdog clock starts when a cell actually runs), harvests
        completions as they arrive (one bad cell never blocks the
        others), reaps workers stuck past ``cell_timeout``, and
        respawns the pool after a ``BrokenProcessPool`` — re-submitting
        the cells that were in flight when it died.
        """
        # Imported here: it loads ``multiprocessing``, which a serial run
        # never needs.
        from concurrent.futures import ProcessPoolExecutor

        pending: list[_Task] = [_Task(index=index) for index in misses]
        inflight: dict[Future, _Task] = {}
        pool: Optional[ProcessPoolExecutor] = None
        respawns = 0
        max_respawns = max(3, 2 * (self.retries + 1))
        poll = _POLL_SECONDS
        if self.cell_timeout is not None:
            poll = min(poll, max(self.cell_timeout / 5.0, 0.01))

        try:
            while pending or inflight:
                now = time.monotonic()
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=min(self.jobs, max(1, len(pending)))
                    )

                crashed = False
                for task in [t for t in pending if t.not_before <= now]:
                    if len(inflight) >= self.jobs:
                        break
                    cell = cells[task.index]
                    try:
                        future = pool.submit(
                            _compute_timed, cell.kind, dict(cell.params)
                        )
                    except BrokenExecutor:
                        crashed = True
                        break
                    task.started_at = time.monotonic()
                    inflight[future] = task
                    pending.remove(task)

                if not inflight and not crashed:
                    if pending:
                        delay = min(t.not_before for t in pending) - time.monotonic()
                        if delay > 0:
                            time.sleep(min(delay, 0.5))
                    continue

                timeout_kill = False
                if inflight:
                    done, _ = wait(
                        list(inflight), timeout=poll, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        task = inflight[future]
                        try:
                            payload, wall, worker = future.result()
                        except KeyboardInterrupt:
                            raise
                        except (BrokenExecutor, CancelledError):
                            crashed = True
                            continue  # classified in the crash sweep below
                        except Exception as exc:
                            del inflight[future]
                            self._fail_or_retry(
                                task, cells, keys, exc, "exception", "",
                                pending, complete,
                            )
                            continue
                        del inflight[future]
                        complete(
                            task.index,
                            CellOutcome(
                                label=cells[task.index].label,
                                kind=cells[task.index].kind,
                                key=keys[task.index],
                                payload=payload,
                                wall_seconds=wall,
                                cache_hit=False,
                                worker=worker,
                                attempts=task.attempts + 1,
                            ),
                        )

                    if not crashed and self.cell_timeout is not None:
                        now = time.monotonic()
                        overdue = [
                            t
                            for t in inflight.values()
                            if now - t.started_at > self.cell_timeout
                        ]
                        if overdue:
                            for task in overdue:
                                task.timed_out = True
                            self._kill_pool(pool)
                            pool = None
                            crashed = True
                            timeout_kill = True

                if crashed:
                    respawns += 1
                    if pool is not None:
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = None
                    self._sweep_crashed_inflight(
                        inflight, cells, keys, timeout_kill, pending, complete
                    )
                    if respawns > max_respawns:
                        for task in pending:
                            # Force a terminal failure: no retries left
                            # once the respawn budget is gone.
                            task.attempts = max(task.attempts, self.retries)
                            self._fail_or_retry(
                                task, cells, keys, None, "worker-crash",
                                f"worker pool respawn budget exhausted "
                                f"({max_respawns} respawns)",
                                [], complete,
                            )
                        pending.clear()
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _sweep_crashed_inflight(
        self,
        inflight: dict,
        cells: Sequence[Cell],
        keys: Sequence[str],
        timeout_kill: bool,
        pending: list,
        complete: Callable[[int, CellOutcome], None],
    ) -> None:
        """Classify every in-flight cell after the pool died.

        Completed-with-result futures are harvested (their work is not
        lost); cells the watchdog marked overdue consume an attempt as
        ``timeout``; collateral victims of a watchdog kill are
        re-submitted for free; victims of a spontaneous crash consume
        an attempt as ``worker-crash`` (the culprit is unknowable, so
        every casualty is charged).
        """
        for future, task in list(inflight.items()):
            del inflight[future]
            if future.done() and not future.cancelled():
                exc = future.exception()
                if exc is None:
                    payload, wall, worker = future.result()
                    complete(
                        task.index,
                        CellOutcome(
                            label=cells[task.index].label,
                            kind=cells[task.index].kind,
                            key=keys[task.index],
                            payload=payload,
                            wall_seconds=wall,
                            cache_hit=False,
                            worker=worker,
                            attempts=task.attempts + 1,
                        ),
                    )
                    continue
                if isinstance(exc, Exception) and not isinstance(
                    exc, (BrokenExecutor, CancelledError)
                ):
                    self._fail_or_retry(
                        task, cells, keys, exc, "exception", "", pending, complete
                    )
                    continue
            if task.timed_out:
                task.timed_out = False
                self._fail_or_retry(
                    task, cells, keys, None, "timeout",
                    f"cell exceeded cell_timeout={self.cell_timeout:g}s "
                    f"(attempt {task.attempts}); worker killed",
                    pending, complete,
                )
            elif timeout_kill:
                task.started_at = 0.0
                pending.append(task)  # collateral damage: free re-submit
            else:
                self._fail_or_retry(
                    task, cells, keys, None, "worker-crash",
                    "worker process died without reporting "
                    "(killed / OOM / segfault); pool respawned",
                    pending, complete,
                )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Forcibly terminate the pool's workers (watchdog reap)."""
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            try:
                process.kill()
            except Exception:  # pragma: no cover - already-dead worker
                pass
        pool.shutdown(wait=False, cancel_futures=True)
