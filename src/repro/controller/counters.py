"""Saturating counter files modeling the VRL-DRAM hardware state (Sec. 3.2).

The paper stores ``mprsf`` and ``rcount`` as ``nbits``-wide counters per
row ("in the actual hardware implementation, those two variables can be
defined as nbits-wide counters") and evaluates ``nbits = 2``.  A
software model must honor the width: MPRSF values above ``2^nbits - 1``
saturate, and ``rcount`` arithmetic wraps through the controller's
reset, never past the width.
"""

from __future__ import annotations

import numpy as np

from ..mprsf.optimizer import MAX_NBITS, check_nbits

__all__ = ["CounterFile", "MAX_NBITS"]


class CounterFile:
    """A vector of per-row ``nbits``-wide saturating counters.

    Backed by a numpy array so the simulator can reset/increment rows in
    bulk.  This models the counter storage whose area Table 2 accounts
    for.  ``nbits`` runs from 1 to :data:`MAX_NBITS`, the widest counter
    whose cadence int64 holds.
    """

    def __init__(self, n_rows: int, nbits: int, initial: np.ndarray | int = 0):
        if n_rows <= 0:
            raise ValueError(f"need at least one row, got {n_rows}")
        self.nbits = check_nbits(nbits)
        self.n_rows = n_rows
        self._values = np.zeros(n_rows, dtype=np.int64)
        if isinstance(initial, np.ndarray):
            self.load(initial)
        elif initial:
            self.load(np.full(n_rows, initial, dtype=np.int64))

    @property
    def max_value(self) -> int:
        """Largest representable value, ``2^nbits - 1``."""
        return (1 << self.nbits) - 1

    @property
    def values(self) -> np.ndarray:
        """A read-only view of the counter values."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    def load(self, values: np.ndarray) -> None:
        """Bulk-load values, saturating each at the counter width."""
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (self.n_rows,):
            raise ValueError(
                f"expected shape ({self.n_rows},), got {values.shape}"
            )
        if (values < 0).any():
            raise ValueError("counter values cannot be negative")
        self._values = np.minimum(values, self.max_value)

    def get(self, row: int) -> int:
        """Value of one row's counter."""
        return int(self._values[row])

    def increment(self, row: int) -> int:
        """Saturating increment of one row's counter; returns the new value."""
        self._values[row] = min(self._values[row] + 1, self.max_value)
        return int(self._values[row])

    def reset(self, row: int) -> None:
        """Clear one row's counter."""
        self._values[row] = 0

    def reset_all(self) -> None:
        """Clear every counter (e.g. at simulation start)."""
        self._values[:] = 0

    # ------------------------------------------------------------------ #
    # Batch operations (the policy kernel's access path)                  #
    # ------------------------------------------------------------------ #

    def get_rows(self, rows: np.ndarray) -> np.ndarray:
        """Values of the selected rows' counters as a fresh array."""
        return self._values[rows].copy()

    def increment_rows(self, rows: np.ndarray) -> None:
        """Saturating increment of the selected rows' counters.

        Duplicate indices are honored sequentially: a row listed ``k``
        times is incremented ``k`` times (then saturated), exactly as
        ``k`` scalar :meth:`increment` calls would leave it.
        """
        np.add.at(self._values, rows, 1)
        np.minimum(self._values, self.max_value, out=self._values)

    def reset_rows(self, rows: np.ndarray) -> None:
        """Clear the selected rows' counters."""
        self._values[rows] = 0
