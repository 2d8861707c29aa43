"""Content-addressed on-disk cache for experiment cell results.

A *cell* (one ``(workload, policy)``-style unit of an experiment sweep)
is identified by a stable SHA-256 digest of its full recomputation
recipe: the cell kind, every parameter that feeds the computation
(policy configuration, trace name and seed, technology/timing
parameters, duration), and the package version.  Any change to any of
those produces a different key, so stale entries are never returned —
they are simply never looked up again.

Entries are single JSON files named ``<digest>.json`` inside the cache
directory.  Writes are atomic (temp file + ``os.replace``), and reads
treat *any* malformed entry — truncated JSON, wrong schema, digest
mismatch — as a miss: the cell is recomputed and the bad file replaced,
never crashed on.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from .. import __version__

#: Bumped when the on-disk entry layout changes (invalidates old caches).
CACHE_SCHEMA = 1

#: Fallback payload-layout version for kinds that never registered one.
DEFAULT_RESULT_SCHEMA = 1

#: Payload-layout version per cell kind (see :func:`register_result_schema`).
_RESULT_SCHEMAS: dict[str, int] = {}

#: Per-process tiebreaker so concurrent :meth:`ResultCache.put` calls in
#: one thread (e.g. re-entrant signal handlers) still stage uniquely.
_put_counter = itertools.count()


def register_result_schema(kind: str, version: int) -> None:
    """Declare the payload-layout version of one cell kind.

    The version is folded into every :func:`cache_key` for that kind,
    so bumping it when the kind's *result* shape changes (new fields,
    renamed counters, changed units) invalidates exactly that kind's
    cached entries — the stale-cache trap that opens once many runs
    share one cache directory.  Kinds register their
    versions at import time in :mod:`repro.runner.cells`.
    """
    _RESULT_SCHEMAS[kind] = int(version)


def result_schema(kind: str) -> int:
    """The registered payload-layout version of ``kind`` (default 1)."""
    return _RESULT_SCHEMAS.get(kind, DEFAULT_RESULT_SCHEMA)


def canonical_json(value: Any) -> str:
    """Deterministic JSON serialization (sorted keys, compact, no NaN)."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def cache_key(
    kind: str,
    params: Mapping[str, Any],
    version: str = __version__,
    result_version: Optional[int] = None,
) -> str:
    """The content address of one cell: sha256 over its recipe.

    Args:
        kind: registered cell kind (see :mod:`repro.runner.cells`).
        params: every input of the computation, JSON primitives only.
        version: package version; part of the key so upgrading the code
            invalidates all cached numbers.
        result_version: the kind's payload-layout version; defaults to
            the registered one (:func:`result_schema`), so bumping a
            kind's schema in :data:`repro.runner.cells.RESULT_SCHEMAS`
            invalidates its cached entries without touching the others.
    """
    if result_version is None:
        result_version = result_schema(kind)
    recipe = canonical_json(
        {
            "kind": kind,
            "params": params,
            "version": version,
            "schema": CACHE_SCHEMA,
            "result_schema": int(result_version),
        }
    )
    return hashlib.sha256(recipe.encode()).hexdigest()


class ResultCache:
    """On-disk cell-result store, one JSON file per cache key.

    Args:
        directory: cache root; created on first write.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The cached payload for ``key``, or ``None`` on miss.

        A corrupt entry (unparseable, wrong schema, or stored under a
        mismatching key) counts as a miss and is deleted so the rerun's
        fresh result can take its place.
        """
        path = self.path_for(key)
        try:
            with path.open() as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            self._discard(path)
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != CACHE_SCHEMA
            or entry.get("key") != key
            or "payload" not in entry
        ):
            self._discard(path)
            return None
        return entry["payload"]

    def put(self, key: str, payload: dict, meta: Optional[Mapping[str, Any]] = None) -> Path:
        """Store ``payload`` under ``key`` atomically; returns the path.

        Crash-safe and race-safe: the entry is serialized to a sibling
        ``.tmp`` file unique to this call (pid + thread + counter, so
        concurrent writers — threads included — never share a staging
        file), flushed and fsynced, then renamed over the destination
        with ``os.replace`` — a worker killed mid-write can leave at
        most a stray ``.tmp`` file, never a torn ``<key>.json`` (and a
        torn entry would be healed by :meth:`get` regardless).  Racing
        writers for the same key each land a complete entry; the last
        rename wins.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "version": __version__,
            "meta": dict(meta) if meta else {},
            "payload": payload,
        }
        tmp = path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}.{next(_put_counter)}"
        )
        try:
            with tmp.open("w") as fh:
                fh.write(json.dumps(entry, sort_keys=True))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
        return path

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing unlink is fine
            pass
