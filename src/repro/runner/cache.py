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
never crashed on.  :attr:`ResultCache.discarded` counts those entries,
and each run manifest reports how many of them the run met.

A warm sweep keys and reads every cell, so both are kept cheap:
:func:`cache_key` encodes an unchanged technology dict once rather than
once per cell, and :meth:`ResultCache.get` reads an entry as bytes with
one ``open``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from operator import is_
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from .. import __version__
from .cells import CELL_KINDS

#: Bumped when the on-disk entry layout changes (invalidates old caches).
CACHE_SCHEMA = 1

#: Per-process tiebreaker so concurrent :meth:`ResultCache.put` calls in
#: one thread (e.g. re-entrant signal handlers) still stage uniquely.
_put_counter = itertools.count()


#: The one encoder behind :func:`canonical_json` (``json.dumps`` with
#: these options would build a new encoder on every call).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(value: Any) -> str:
    """Deterministic JSON serialization (sorted keys, compact, no NaN)."""
    return _ENCODER.encode(value)


#: Stands in for ``params["tech"]`` while the rest of a recipe is
#: encoded; it encodes as ``_TECH_MARK``, which the encoded tech dict
#: then replaces (see :func:`_recipe_json`).
_TECH_SENTINEL = "\x00"
_TECH_MARK = canonical_json(_TECH_SENTINEL)

#: Values whose encoding cannot change while the object lives.
_SCALARS = (str, int, float, type(None))


#: The last tech dict encoded by :func:`_tech_json`: its keys then its
#: values (strong references, so no id among them can be reused) and
#: its encoding.  It starts out holding the empty dict.
_tech_memo: tuple[tuple, str] = ((), "{}")


def _tech_json(tech: dict) -> str:
    """``canonical_json(tech)``, memoized on the identity of its items.

    A hit needs the same key and value *objects* in the same order, so
    equal values that encode differently (``-0.0`` and ``0.0``, ``1``
    and ``True``) never share an encoding.  Only dicts of immutable
    scalars are memoized; anything else is encoded afresh.
    """
    global _tech_memo
    refs = (*tech, *tech.values())
    held, encoded = _tech_memo
    if len(refs) == len(held) and all(map(is_, refs, held)):
        return encoded
    encoded = canonical_json(tech)
    if all(isinstance(value, _SCALARS) for value in tech.values()):
        _tech_memo = (refs, encoded)
    return encoded


def _recipe_json(recipe: dict) -> str:
    """``canonical_json(recipe)``, with ``recipe["params"]["tech"]`` spliced.

    The tech dict (the bulk of every recipe, and the same for every
    cell of a sweep) is encoded by :func:`_tech_json`; the rest of the
    recipe is encoded around a sentinel that the encoded dict then
    replaces.  The splice is taken only when the sentinel's encoding
    occurs exactly once, so a param that happens to equal the sentinel
    falls back to encoding the whole recipe.
    """
    params = recipe["params"]
    tech = params.get("tech") if type(params) is dict else None
    if type(tech) is not dict:
        return canonical_json(recipe)
    outer = canonical_json(
        {**recipe, "params": {**params, "tech": _TECH_SENTINEL}}
    )
    if outer.count(_TECH_MARK) != 1:
        return canonical_json(recipe)
    return outer.replace(_TECH_MARK, _tech_json(tech))


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
            its :attr:`~repro.runner.cells.CellKind.schema_version` in
            :data:`~repro.runner.cells.CELL_KINDS`, so bumping it
            invalidates that kind's cached entries and no others.
    """
    if result_version is None:
        result_version = CELL_KINDS[kind].schema_version
    recipe = _recipe_json(
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

    Attributes:
        discarded: corrupt entries :meth:`get` has deleted so far.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self._prefix = os.path.join(str(self.directory), "")
        self.discarded = 0

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The cached payload for ``key``, or ``None`` on miss.

        A corrupt entry (unparseable, wrong schema, or stored under a
        mismatching key) counts as a miss and is deleted so the rerun's
        fresh result can take its place.
        """
        path = f"{self._prefix}{key}.json"
        try:
            with open(path, "rb") as fh:
                entry = json.loads(fh.read())
        except FileNotFoundError:
            return None
        except (ValueError, OSError):  # JSONDecodeError, UnicodeDecodeError
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

    def _discard(self, path: str) -> None:
        self.discarded += 1
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - racing unlink is fine
            pass
