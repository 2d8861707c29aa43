"""Technology and circuit parameters for the VRL-DRAM analytical model.

The paper evaluates everything at the 90nm node (Sicard [37]).  This module
defines a :class:`TechnologyParams` dataclass holding every electrical
constant the Section 2 model needs — supply rails, MOSFET process
parameters, cell/bitline/wordline parasitics, sense-amplifier geometry —
plus the clock periods used to quantize continuous delays into the two
cycle domains the paper reports (see DESIGN.md §4).

Bank geometry (rows × columns) is separated into :class:`BankGeometry`
because bitline capacitance/resistance scale with the number of rows and
wordline RC scales with the number of columns; Table 1 sweeps exactly
these two knobs.

Values are representative of 90nm DRAM literature and were calibrated
(``tests/test_calibration.py``) so the quantized latencies reproduce the
paper's reported cycle counts; see DESIGN.md §7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .guard import assert_finite
from .units import AF, FF, KOHM, NS, OHM


@dataclass(frozen=True)
class BankGeometry:
    """A DRAM bank's array geometry, ``rows x cols`` as in Table 1.

    ``rows`` is the number of wordlines (cells per bitline) and ``cols``
    the number of bitline pairs attached to one wordline.  The paper's
    evaluation bank is 8192x32; Table 1 additionally uses 2048 and 16384
    rows and 128 columns.
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"bank geometry must be positive, got {self.rows}x{self.cols}")

    @property
    def cells(self) -> int:
        """Total number of cells in the bank."""
        return self.rows * self.cols

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.rows}x{self.cols}"


#: The bank geometry used throughout the paper's evaluation (Sec. 4.1).
DEFAULT_GEOMETRY = BankGeometry(rows=8192, cols=32)

#: The six geometries swept in Table 1.
TABLE1_GEOMETRIES = (
    BankGeometry(2048, 32),
    BankGeometry(2048, 128),
    BankGeometry(8192, 32),
    BankGeometry(8192, 128),
    BankGeometry(16384, 32),
    BankGeometry(16384, 128),
)


@dataclass(frozen=True)
class TechnologyParams:
    """Electrical parameters of the 90nm DRAM process used by the model.

    Attributes mirror the symbols of Section 2 of the paper:

    * ``vdd``/``vss``/``vpp`` — core rails and the boosted wordline/EQ gate
      voltage (``V_g`` in Eq. 1).
    * ``vtn``/``vtp`` — NMOS/PMOS threshold voltages (``V_tn2``, ``V_tp``).
    * ``mu_n_cox``/``mu_p_cox`` — process transconductance ``mu * C_ox``
      entering ``beta = mu C_ox W/L`` (Eq. 1).
    * ``wl_eq``/``wl_access``/``wl_sense_n``/``wl_sense_p`` — W/L ratios of
      the equalization transistors (M2/M3), the cell access transistor
      (M1), and the sense-amp NMOS/PMOS pairs (Fig. 2d).
    * ``cs`` — cell storage capacitance ``C_s``.
    * ``cbl_fixed``/``cbl_per_row`` — bitline capacitance model
      ``C_bl = cbl_fixed + rows * cbl_per_row`` (more rows = longer
      bitline = more attached junctions).
    * ``rbl_fixed``/``rbl_per_row`` — bitline resistance, same scaling.
    * ``cbb``/``cbw`` — bitline-to-bitline and bitline-to-wordline
      parasitic coupling capacitances (Fig. 2c).
    * ``rwl_per_col``/``cwl_per_col`` — distributed wordline RC per column,
      giving the Elmore wordline-rise delay that makes pre-sensing depend
      on the column count (Table 1).
    * ``ron_sense`` — ON resistance of a sense-amp output device; with
      ``R_bl`` it forms ``R_post`` (Eq. 11).
    * ``gme`` — effective transconductance of the cross-coupled inverter
      pair (Eq. 10).
    * ``v_residue`` — marginal differential voltage at the start of
      post-sensing Phase 3 (Eq. 11).
    * ``sense_margin`` — minimum bitline differential the sense amplifier
      needs; defines the "sense-margin" pre-sensing criterion.
    * ``partial_restore_fraction``/``full_restore_fraction`` — charge
      fractions defining partial (95%, Observation 1) and full refresh.
    * ``fail_fraction`` — stored-charge fraction below which sensing fails
      (the 50% threshold of Fig. 1b plus the sensing margin).
    * ``retention_guard`` — profiling guard band in (0, 1]: the MPRSF
      computation assumes a cell may retain only this fraction of its
      profiled retention time, protecting against variable retention
      time (VRT) and profiling error (AVATAR [33], REAPER [32]).
    * ``tck_ctrl``/``tck_dev`` — controller-domain clock (Section 3.1
      cycle counts, tau_partial=11 / tau_full=19) and device-domain clock
      (Table 1 cycle counts).  See DESIGN.md §4 for why two domains exist.
    * ``t_fixed_cycles`` — tau_fixed of Eq. 13 in controller cycles
      (wordline assert/deassert and command decode; the paper uses 4).
    """

    # --- rails and thresholds -------------------------------------------
    vdd: float = 1.2
    vss: float = 0.0
    vpp: float = 1.6
    vtn: float = 0.4
    vtp: float = 0.4

    # --- process ----------------------------------------------------------
    mu_n_cox: float = 300e-6  # A/V^2
    mu_p_cox: float = 120e-6  # A/V^2

    # --- transistor geometries (W/L ratios) ------------------------------
    wl_eq: float = 8.0
    wl_access: float = 0.3
    wl_sense_n: float = 12.0
    wl_sense_p: float = 6.0

    # --- cell and bitline parasitics -------------------------------------
    cs: float = 24 * FF
    cbl_fixed: float = 60 * FF
    cbl_per_row: float = 3 * AF
    rbl_fixed: float = 500 * OHM
    rbl_per_row: float = 0.7 * OHM
    cbb: float = 3 * FF
    cbw: float = 2 * FF

    # --- wordline distributed RC ------------------------------------------
    rwl_per_col: float = 100 * OHM
    cwl_per_col: float = 0.5 * FF

    # --- sense amplifier ---------------------------------------------------
    ron_sense: float = 11 * KOHM
    gme: float = 1e-3  # S
    v_residue: float = 0.055

    # --- sensing / restoration thresholds ---------------------------------
    sense_margin: float = 0.106
    partial_restore_fraction: float = 0.95
    full_restore_fraction: float = 1.0 - 1e-5
    fail_fraction: float = 0.625
    retention_guard: float = 0.75

    # --- clock domains (calibrated) ----------------------------------------
    tck_ctrl: float = 2.10 * NS
    tck_dev: float = 0.37 * NS

    # --- fixed delay (Eq. 13) ----------------------------------------------
    t_fixed_cycles: int = 4

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "TechnologyParams":
        """Check every parameter is finite; returns self.

        A NaN/Inf smuggled in through ``scaled()`` overrides or a sweep
        config would otherwise surface only as a poisoned CSV several
        layers downstream.  Raises
        :class:`~repro.guard.NumericalError` naming the offending field.
        """
        for spec in fields(self):
            assert_finite(getattr(self, spec.name), "technology.TechnologyParams", spec.name)
        return self

    # ------------------------------------------------------------------ #
    # Derived electrical quantities                                       #
    # ------------------------------------------------------------------ #

    @property
    def veq(self) -> float:
        """Equalization voltage ``V_eq = V_dd / 2`` (Sec. 2.1)."""
        return self.vdd / 2.0

    def beta_n(self, wl_ratio: float) -> float:
        """NMOS ``beta = mu_n C_ox (W/L)`` for a device of the given ratio."""
        return self.mu_n_cox * wl_ratio

    def beta_p(self, wl_ratio: float) -> float:
        """PMOS ``beta = mu_p C_ox (W/L)`` for a device of the given ratio."""
        return self.mu_p_cox * wl_ratio

    def ron_nmos(self, wl_ratio: float, vgs: float) -> float:
        """Linear-region ON resistance ``1 / (beta (V_gs - V_tn))`` (Eq. 2)."""
        vov = vgs - self.vtn
        if vov <= 0:
            raise ValueError(f"NMOS not conducting: Vgs={vgs} <= Vtn={self.vtn}")
        return 1.0 / (self.beta_n(wl_ratio) * vov)

    @property
    def ron_access(self) -> float:
        """ON resistance of the cell access transistor M1 with boosted gate."""
        return self.ron_nmos(self.wl_access, self.vpp - self.veq)

    def cbl(self, geometry: BankGeometry) -> float:
        """Bitline capacitance ``C_bl`` for a bank with ``geometry.rows`` rows."""
        return self.cbl_fixed + geometry.rows * self.cbl_per_row

    def rbl(self, geometry: BankGeometry) -> float:
        """Bitline resistance ``R_bl`` for a bank with ``geometry.rows`` rows."""
        return self.rbl_fixed + geometry.rows * self.rbl_per_row

    def wordline_delay(self, geometry: BankGeometry) -> float:
        """Elmore delay of the distributed wordline RC across ``cols`` columns.

        ``0.5 * (R_wl N)(C_wl N)`` — the far-end cell sees the wordline rise
        this much later, which delays the start of its charge sharing and
        is why Table 1's pre-sensing time grows with the column count.
        """
        r_total = self.rwl_per_col * geometry.cols
        c_total = self.cwl_per_col * geometry.cols
        return 0.5 * r_total * c_total

    def coupling_k1_k2(self, geometry: BankGeometry) -> tuple[float, float]:
        """Coupling coefficients ``K1``/``K2`` of Eq. 7 for this geometry."""
        denom = self.cs + self.cbl(geometry) + 2.0 * self.cbb + self.cbw
        return self.cs / denom, self.cbb / denom

    def c_post(self, geometry: BankGeometry) -> float:
        """Total capacitance driven during post-sensing restore (Eq. 12)."""
        return self.cs + self.cbl(geometry) + 2.0 * self.cbb + self.cbw

    @property
    def v_fail(self) -> float:
        """Cell voltage below which sensing fails (``fail_fraction * V_dd``)."""
        return self.fail_fraction * self.vdd

    def retention_tau(self, retention_time: float) -> float:
        """Leakage time constant of a cell with the given retention time.

        A cell's retention time ``T`` is, by definition, the time for its
        stored voltage to decay from full charge to the sensing-failure
        level ``v_fail``; with exponential leakage ``V(t) = V_dd e^{-t/tau}``
        that pins ``tau = -T / ln(fail_fraction)``.
        """
        if retention_time <= 0:
            raise ValueError(f"retention time must be positive, got {retention_time}")
        return -retention_time / math.log(self.fail_fraction)

    def scaled(self, **overrides: float) -> "TechnologyParams":
        """Return a copy with the given fields replaced (what-if studies)."""
        return replace(self, **overrides)


#: Default calibrated 90nm parameter set used by the paper's evaluation.
DEFAULT_TECH = TechnologyParams()
