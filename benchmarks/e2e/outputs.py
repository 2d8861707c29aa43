"""Output-correctness gate: digests of the CSV tables the verbs write.

Every measured call passes ``--csv``; the digest of a table is the
SHA-256 of its data rows (the header and every row), with the ``#`` note
lines dropped, because notes carry wall times, and with the host-time
columns dropped, because ``table1`` times its three models.  Every
other column repeats exactly between identical runs.

``expected/digests.json`` holds, per invocation:

* ``seeds.<seed>``: the row digest at seeds 2018 (the paper anchor) and
  7 (held out);
* ``any_seed``: the row digest of the invocations whose tables are the
  same at both seeds (the verbs that take no seed);
* ``keys``: the digest of the header and the first column, which name
  the rows and do not depend on the seed.

At a seed with committed digests the rows must match; at any other
seed a seeded table must have the committed header and row names and
only finite numbers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Optional

EXPECTED = Path(__file__).resolve().parent / "expected" / "digests.json"

#: Columns holding host time (``table1``'s per-model runtimes).
HOST_TIME_COLUMNS = frozenset({"t SPICE", "t single", "t model"})


def _sha(rows: list[list[str]]) -> str:
    return hashlib.sha256("\n".join(",".join(r) for r in rows).encode()).hexdigest()


def _is_finite(field: str) -> bool:
    try:
        return math.isfinite(float(field))
    except ValueError:
        return True


def digest(path: Path) -> dict:
    """``rows`` and ``keys`` digests of one CSV table, and whether every
    numeric field is ``finite``."""
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    if not rows:
        raise ValueError(f"{path} has no header row")
    keep = [i for i, name in enumerate(rows[0]) if name not in HOST_TIME_COLUMNS]
    rows = [[row[i] for i in keep] for row in rows]
    return {
        "rows": _sha(rows),
        "keys": _sha([rows[0]] + [row[:1] for row in rows[1:]]),
        "finite": all(_is_finite(f) for row in rows[1:] for f in row),
    }


def load_expected() -> dict:
    """The committed digests (see the module docstring)."""
    return json.loads(EXPECTED.read_text())


def problem(invocation: str, seed: int, got: dict, expected: dict) -> Optional[str]:
    """Why ``got`` (a :func:`digest`) is wrong for ``invocation`` at
    ``seed``, or ``None`` when it is right."""
    want = expected["seeds"].get(str(seed), {}).get(invocation)
    if want is None:
        want = expected["any_seed"].get(invocation)
    if want is not None:
        if got["rows"] != want:
            return f"{invocation}: rows digest {got['rows'][:12]} != expected {want[:12]}"
        return None
    want_keys = expected["keys"].get(invocation)
    if want_keys is None:
        return f"{invocation}: no expected digest committed"
    if got["keys"] != want_keys:
        return f"{invocation}: header/row names differ from the committed table"
    if not got["finite"]:
        return f"{invocation}: non-finite number in the table"
    return None
