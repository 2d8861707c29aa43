"""Test-side oracle of :meth:`repro.runner.Cell.of`: the typed ``Query``.

Before cells were declared once in :data:`repro.runner.cells.CELL_KINDS`,
a sweep request was a frozen ``Query`` dataclass, projected onto each
kind's params through three tables (``KIND_PARAMS``, ``_CANONICAL`` /
``_KIND_FIELDS`` and ``_REQUIRED``) with a hand-written default label.
It is kept here unchanged, as the oracle ``Cell.of`` must agree with on
every valid request: the same params (key order and value types), the
same label, and so the same cache key.  Existing user caches stay hits
only while they agree.

It canonicalizes integer fields with ``int()``, so it also accepts what
``Cell.of`` rejects: ``rows=64.7`` projects to ``64`` and ``seed=True``
to ``1``, aliasing another request's key; a NaN float fails only once
it is keyed.  ``tests/test_cell_spec.py`` shows both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from repro.runner import Cell, cache_key, tech_params
from repro.runner.cells import CELL_KINDS
from repro.technology import TechnologyParams

#: The parameter names each cell kind consumes, in the exact order the
#: pre-service sweep drivers emitted them.  ``Query.params()`` projects
#: the typed fields through this table so cache keys stay canonical.
KIND_PARAMS: dict[str, tuple[str, ...]] = {
    "refresh-overhead": (
        "tech", "rows", "cols", "policy", "nbits", "benchmark", "seed",
        "duration_seconds",
    ),
    "engine-run": (
        "tech", "rows", "cols", "policy", "nbits", "benchmark", "seed",
        "duration_seconds",
    ),
    "rank-mode": (
        "tech", "rows", "cols", "n_banks", "mode", "seed", "duration_seconds",
    ),
    "baseline-mechanism": (
        "tech", "rows", "cols", "mechanism", "benchmark", "seed",
        "duration_seconds",
    ),
    "mechanism-matrix": (
        "tech", "rows", "cols", "mechanism", "nbits", "benchmark",
        "temperature", "seed", "duration_seconds",
    ),
    "temperature-point": ("tech", "rows", "cols", "temperature", "seed"),
    "calibration-sweep": (
        "tech", "rows", "cols", "restore_fraction", "start_lo", "start_hi",
        "n_points",
    ),
}


def _optional_float(value: Any) -> Optional[float]:
    return None if value is None else float(value)


#: How ``Query.params()`` canonicalizes each typed field (names absent
#: here pass through unchanged).
_CANONICAL: dict[str, Callable[[Any], Any]] = {
    "tech": dict,
    "rows": int, "cols": int, "nbits": int, "n_banks": int, "seed": int,
    "n_points": int,
    "duration_seconds": float, "temperature": float, "start_lo": float,
    "start_hi": float,
    "restore_fraction": _optional_float,
}

#: ``KIND_PARAMS`` with each name paired with its canonicalizer.
_KIND_FIELDS: dict[str, tuple[tuple[str, Optional[Callable[[Any], Any]]], ...]] = {
    kind: tuple((name, _CANONICAL.get(name)) for name in names)
    for kind, names in KIND_PARAMS.items()
}

#: Fields that must be non-``None`` for a kind to be computable.
_REQUIRED: dict[str, tuple[str, ...]] = {
    "refresh-overhead": ("policy",),
    "engine-run": ("policy",),
    "rank-mode": ("n_banks", "mode"),
    "baseline-mechanism": ("mechanism",),
    "mechanism-matrix": ("mechanism", "temperature"),
    "temperature-point": ("temperature",),
    "calibration-sweep": ("start_lo", "start_hi", "n_points"),
}


@dataclass(frozen=True)
class Query:
    """One typed, canonically hashable simulation request.

    Attributes:
        kind: registered cell kind (key of
            :data:`repro.runner.cells.CELL_KINDS`).
        tech: technology parameters as a JSON-primitive dict (a
            :class:`~repro.technology.TechnologyParams` is accepted and
            normalized).
        rows / cols: bank geometry.
        seed: profiling / trace RNG seed.
        duration_seconds: simulated horizon (ignored by
            ``temperature-point``).
        policy: refresh policy name (``refresh-overhead`` /
            ``engine-run``).
        nbits: VRL counter width (policy kinds only).
        benchmark: workload name, or ``None`` for refresh-only.
        mode: rank refresh mode (``rank-mode``).
        n_banks: banks per rank (``rank-mode``).
        mechanism: refresh mechanism name (``baseline-mechanism``).
        temperature: operating point in degC (``temperature-point``).
        restore_fraction: partial-restore target under calibration, or
            ``None`` for the technology default
            (``calibration-sweep``).
        start_lo / start_hi: bounds of the starting-charge profile
            (``calibration-sweep``).
        n_points: lanes of the calibration profile
            (``calibration-sweep``).
        label: human-readable tag for manifests and telemetry.
    """

    kind: str
    tech: Mapping[str, Any]
    rows: int
    cols: int
    seed: int = 2018
    duration_seconds: float = 1.0
    policy: Optional[str] = None
    nbits: int = 2
    benchmark: Optional[str] = None
    mode: Optional[str] = None
    n_banks: Optional[int] = None
    mechanism: Optional[str] = None
    temperature: Optional[float] = None
    restore_fraction: Optional[float] = None
    start_lo: Optional[float] = None
    start_hi: Optional[float] = None
    n_points: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ValueError(
                f"unknown query kind {self.kind!r}; registered: {sorted(CELL_KINDS)}"
            )
        if isinstance(self.tech, TechnologyParams):
            object.__setattr__(self, "tech", tech_params(self.tech))
        elif not isinstance(self.tech, Mapping):
            raise TypeError(
                "tech must be a TechnologyParams or its asdict() mapping, "
                f"not {type(self.tech).__name__}"
            )
        missing = [
            name for name in _REQUIRED[self.kind] if getattr(self, name) is None
        ]
        if missing:
            raise ValueError(
                f"query kind {self.kind!r} requires {', '.join(missing)}"
            )
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        if self.kind in ("refresh-overhead", "engine-run"):
            return f"{self.policy}/{self.benchmark or 'refresh-only'}"
        if self.kind == "rank-mode":
            return f"rank/{self.mode}"
        if self.kind == "baseline-mechanism":
            return f"baseline/{self.mechanism}"
        if self.kind == "mechanism-matrix":
            return (
                f"matrix/{self.mechanism}/{self.benchmark or 'refresh-only'}"
                f"/{self.temperature:.0f}C/{self.rows}r"
            )
        if self.kind == "calibration-sweep":
            target = (
                "default"
                if self.restore_fraction is None
                else f"{self.restore_fraction:.2f}"
            )
            return f"calibrate/{target}x{self.n_points}"
        return f"temp/{self.temperature:.0f}C"

    def params(self) -> dict[str, Any]:
        """The cell parameter dict, canonical for this kind.

        Field order and value types mirror what the sweep drivers
        historically passed, so the cache key of a query equals the
        cache key of the equivalent driver-built cell.
        """
        return {
            name: getattr(self, name) if canonical is None
            else canonical(getattr(self, name))
            for name, canonical in _KIND_FIELDS[self.kind]
        }

    def to_cell(self) -> Cell:
        """Lower to the runner's :class:`~repro.runner.cells.Cell`."""
        return Cell(self.kind, self.params(), self.label)

    def key(self) -> str:
        """Canonical content address (the ``ResultCache`` key)."""
        return cache_key(self.kind, self.params())
