"""Charge-leakage model linking retention time to voltage decay.

A DRAM cell's stored charge leaks through its access-transistor
subthreshold path, junction leakage, and the sneak paths of Fig. 2c.
The paper's Observation 2 (Fig. 1b) only needs the aggregate effect:
an exponential decay whose time constant is pinned by the cell's
*retention time* — the time for a fully-charged cell to decay to the
sensing-failure threshold (the "50% threshold" of Fig. 1b plus sensing
margin, ``fail_fraction`` in :class:`~repro.technology.TechnologyParams`).

Data-pattern dependence enters as a multiplicative derating of the
retention time: cells whose neighbours store the opposite value leak
faster through the bitline-to-bitline sneak paths (Khan et al. [15, 16],
Liu et al. [28]).  The derating factors live in
:mod:`repro.retention.data_patterns`; this module just applies them.
"""

from __future__ import annotations

import math

from ..technology import TechnologyParams


class LeakageModel:
    """Exponential cell-voltage decay parameterized by retention time.

    All voltages are handled as *fractions of full charge* (1.0 = fully
    charged, ``fail_fraction`` = sensing failure), which is the natural
    unit for Fig. 1a/1b and for the MPRSF iteration.

    Args:
        tech: technology parameters (``fail_fraction`` defines the
            retention-time <-> time-constant mapping).
    """

    def __init__(self, tech: TechnologyParams):
        self.tech = tech

    def tau(self, retention_time: float, pattern_factor: float = 1.0) -> float:
        """Leakage time constant for a cell of the given retention time.

        Args:
            retention_time: profiled retention time in seconds.
            pattern_factor: data-pattern derating in (0, 1]; the
                effective retention is ``retention_time * pattern_factor``.
        """
        if not 0 < pattern_factor <= 1:
            raise ValueError(f"pattern_factor must be in (0,1], got {pattern_factor}")
        return self.tech.retention_tau(retention_time * pattern_factor)

    def fraction_after(
        self,
        fraction_start: float,
        elapsed: float,
        retention_time: float,
        pattern_factor: float = 1.0,
    ) -> float:
        """Charge fraction after ``elapsed`` seconds of leakage.

        Args:
            fraction_start: charge fraction at the start (e.g. 1.0 right
                after a full refresh, 0.95 after a partial one).
            elapsed: leakage interval in seconds (a refresh period).
            retention_time: the cell's profiled retention time.
            pattern_factor: data-pattern derating.
        """
        if fraction_start < 0:
            raise ValueError(f"charge fraction cannot be negative, got {fraction_start}")
        if elapsed < 0:
            raise ValueError(f"elapsed time cannot be negative, got {elapsed}")
        return fraction_start * math.exp(-elapsed / self.tau(retention_time, pattern_factor))

    def retains_data(self, fraction: float) -> bool:
        """Whether a cell at this charge fraction still senses correctly."""
        return fraction >= self.tech.fail_fraction

    def time_to_failure(
        self,
        fraction_start: float,
        retention_time: float,
        pattern_factor: float = 1.0,
    ) -> float:
        """Time until a cell starting at ``fraction_start`` fails sensing.

        Returns 0 if the cell is already below the failure threshold.
        This is the generalization of "retention time" to a partially
        charged cell: a cell restored to 95% fails *earlier* than its
        profiled (full-charge) retention time — the core trade-off of
        partial refresh.
        """
        fail = self.tech.fail_fraction
        if fraction_start <= fail:
            return 0.0
        return self.tau(retention_time, pattern_factor) * math.log(fraction_start / fail)
