"""Refresh energy accounting in the spirit of DRAMPower [3].

Energy of one row refresh splits into three physical components:

* **bitline energy** — every sense amplifier swings its bitline pair
  between the rails once per refresh regardless of how long the restore
  phase runs: ``cols * C_bl * V_dd^2 / 2``-class, duration-independent;
* **cell restore energy** — charge pushed back into the storage
  capacitors: ``cols * C_s * V_dd^2 * fraction``; a partial refresh at
  95% saves only 5% of this;
* **peripheral energy** — wordline drivers, decoders, and control
  consuming a roughly constant current for the whole tRFC window:
  proportional to the operation's latency, which is where partial
  refresh saves.

With the calibrated parameters, a partial refresh costs ~82% of a full
one, which over the Fig. 4 policies reproduces the paper's ~12% refresh
power reduction of VRL over RAIDR.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model.trfc import RefreshTiming
from ..sim.stats import RefreshStats
from ..technology import BankGeometry, DEFAULT_GEOMETRY, TechnologyParams
from ..units import UA


@dataclass(frozen=True)
class PowerBreakdown:
    """Energy of a refresh workload, by component (joules)."""

    bitline_energy: float
    cell_energy: float
    peripheral_energy: float

    @property
    def total(self) -> float:
        """Total refresh energy in joules."""
        return self.bitline_energy + self.cell_energy + self.peripheral_energy


class RefreshPowerModel:
    """Per-refresh and per-workload refresh energy estimation.

    Args:
        tech: technology parameters (capacitances, rails, clock).
        geometry: bank geometry (bitline count and length).
        peripheral_current: average peripheral current drawn during a
            refresh operation (wordline drive, decode, control).
    """

    #: Calibrated per-row-refresh peripheral current.
    DEFAULT_PERIPHERAL_CURRENT = 45 * UA

    def __init__(
        self,
        tech: TechnologyParams,
        geometry: BankGeometry = DEFAULT_GEOMETRY,
        peripheral_current: float = DEFAULT_PERIPHERAL_CURRENT,
    ):
        if peripheral_current < 0:
            raise ValueError(f"peripheral current cannot be negative: {peripheral_current}")
        self.tech = tech
        self.geometry = geometry
        self.peripheral_current = peripheral_current

    def refresh_energy(self, timing: RefreshTiming) -> PowerBreakdown:
        """Energy of one row refresh with the given timing."""
        tech = self.tech
        cols = self.geometry.cols
        e_bitline = cols * tech.cbl(self.geometry) * tech.vdd**2 / 2.0
        e_cell = cols * tech.cs * tech.vdd**2 * timing.restore_fraction
        e_peripheral = self.peripheral_current * tech.vdd * timing.total_seconds
        return PowerBreakdown(e_bitline, e_cell, e_peripheral)

    def workload_energy(
        self,
        stats: RefreshStats,
        full: RefreshTiming,
        partial: RefreshTiming,
    ) -> float:
        """Total refresh energy of a simulated workload (joules).

        Args:
            stats: refresh counts from a simulation run.
            full: the policy's full-refresh timing.
            partial: the policy's partial-refresh timing (ignored if the
                run issued no partial refreshes).
        """
        e_full = self.refresh_energy(full).total
        e_partial = self.refresh_energy(partial).total
        return stats.full_refreshes * e_full + stats.partial_refreshes * e_partial

    def refresh_power(
        self,
        stats: RefreshStats,
        full: RefreshTiming,
        partial: RefreshTiming,
    ) -> float:
        """Average refresh power over the simulated window (watts)."""
        if stats.duration_cycles <= 0:
            raise ValueError("stats carry no duration")
        duration_seconds = stats.duration_cycles * self.tech.tck_ctrl
        return self.workload_energy(stats, full, partial) / duration_seconds
