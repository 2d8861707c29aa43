"""Finite-value guards at layer boundaries.

A NaN or Inf born deep inside a kernel (a miscompiled jit body, a
pathological technology corner, an overflowing companion model) is
worthless by the time it reaches a CSV: every downstream statistic is
poisoned and nothing names the culprit.  :func:`assert_finite` is the
cheap sentinel placed where one layer hands data to the next —
technology parameters, solver waveforms, measurement outputs, timeline
statistics, MPRSF overheads.  It raises a structured
:class:`NumericalError` naming the boundary, the offending array, and
the first non-finite index, so a runner manifest pinpoints the layer
that produced garbage instead of the layer that tripped over it.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Union

import numpy as np

__all__ = ["NumericalError", "assert_finite"]


class NumericalError(RuntimeError):
    """A non-finite value crossed a guarded layer boundary.

    Attributes:
        boundary: dotted name of the guarded boundary
            (e.g. ``"sim.timeline.evaluate"``).
        array: name of the offending array or field.
        index: index of the first non-finite entry (tuple for
            multi-dimensional arrays, ``()`` for scalars).
        value: the offending value itself.
    """

    def __init__(
        self,
        message: str,
        *,
        boundary: str = "",
        array: str = "",
        index: Optional[Union[int, Tuple[int, ...]]] = None,
        value: Optional[float] = None,
    ):
        super().__init__(message)
        self.boundary = boundary
        self.array = array
        self.index = index
        self.value = value

    def to_dict(self) -> dict:
        """JSON-serializable diagnostics payload for runner manifests."""
        index = self.index
        if isinstance(index, tuple):
            index = list(index)
        return {
            "boundary": self.boundary,
            "array": self.array,
            "index": index,
            "value": None if self.value is None else repr(self.value),
        }


def _first_bad_index(arr: np.ndarray) -> Tuple[Union[int, Tuple[int, ...]], float]:
    """Index and value of the first non-finite entry of ``arr``."""
    flat = np.flatnonzero(~np.isfinite(arr.ravel()))
    first = int(flat[0])
    value = float(arr.ravel()[first])
    if arr.ndim <= 1:
        return first, value
    return tuple(int(k) for k in np.unravel_index(first, arr.shape)), value


def assert_finite(value: Any, boundary: str, name: str = "value") -> Any:
    """Check ``value`` is finite everywhere; return it unchanged.

    Accepts scalars, numpy arrays, and flat dicts of either (waveform
    traces); non-float dtypes pass through untouched.  Raises
    :class:`NumericalError` on the first NaN/Inf.
    """
    if isinstance(value, dict):
        for key, item in value.items():
            assert_finite(item, boundary, str(key))
        return value
    arr = np.asarray(value)
    if arr.dtype.kind not in "fc":
        return value
    if not np.isfinite(arr).all():
        index, bad = _first_bad_index(arr)
        raise NumericalError(
            f"non-finite value at boundary {boundary}: {name}[{index}] = {bad!r}",
            boundary=boundary,
            array=name,
            index=index,
            value=bad,
        )
    return value
