"""Pre-sensing (charge sharing) model with bitline coupling (Sec. 2.2, Eq. 3–8).

After the wordline fires, each activated cell shares charge with its
precharged bitline.  The bitline differential available for sensing,
``V_sense``, is reduced by sneak paths and by parasitic coupling to the
neighbouring bitlines (``C_bb``) and to the wordline (``C_bw``,
Fig. 2c).  The paper's contribution here is the closed-form solution of
the cyclic neighbour dependency (Eq. 7) as a tridiagonal linear system
(Eq. 8) — this module builds and solves exactly that system.

Two delay criteria are exposed (see DESIGN.md §4):

* ``"sense-margin"`` — time until the developing differential
  ``Delta V_bl(t)`` reaches the sense amplifier's input margin; this is
  what a refresh operation actually waits for and produces the
  Section 3.1 ``tau_pre`` = 2 controller cycles.
* ``"settle"`` — time until charge sharing is 95% complete
  (``U(t) <= 0.05``); this is what Table 1 reports in device cycles.

Both criteria invert the closed-form ``U(t)`` with :func:`_brentq`, an
in-module port of scipy's C ``brentq`` that returns the same double
(scipy's ``brentq`` stays in ``tests/test_presensing.py`` as the
oracle).  Keeping SciPy out of this module keeps it out of the CLI's
import graph: SciPy loads only where a verb solves a circuit.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Sequence

import numpy as np

from ..technology import BankGeometry, TechnologyParams
from ..units import to_cycles

#: Criterion names accepted by :meth:`PreSensingModel.delay`.
CRITERIA = ("sense-margin", "settle")

#: Brent defaults, as in scipy's ``brentq``.
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brentq(f, xa, xb, xtol, maxiter=_BRENT_MAXITER):
    """Root of ``f`` in ``[xa, xb]`` by Brent's method.

    A line-for-line port of scipy's C ``brentq`` (``Zeros/brentq.c``):
    the same iterates in plain IEEE double arithmetic, so the root is
    the same double scipy's ``brentq`` returns.

    Raises:
        ValueError: if ``f(xa)`` and ``f(xb)`` have the same sign, or
            ``f`` returns NaN.
        RuntimeError: if ``maxiter`` iterations do not converge.
    """

    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C yields inf or NaN here, which fails the test below.
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(
        f"PreSensingModel._solve_u: Brent's method failed to converge after "
        f"{maxiter} iterations, value is {xcur}"
    )


class PreSensingModel:
    """Charge-sharing dynamics and coupled sense-voltage solution.

    Args:
        tech: technology parameters.
        geometry: bank geometry; sets ``C_bl``, ``R_bl``, the coupling
            coefficients ``K1``/``K2`` and the wordline RC delay.
    """

    def __init__(self, tech: TechnologyParams, geometry: BankGeometry):
        self.tech = tech
        self.geometry = geometry
        self.cbl = tech.cbl(geometry)
        self.rbl = tech.rbl(geometry)
        self.k1, self.k2 = tech.coupling_k1_k2(geometry)

    # ------------------------------------------------------------------ #
    # Eq. 3–5: charge-sharing transient                                    #
    # ------------------------------------------------------------------ #

    @property
    def r_pre(self) -> float:
        """Charge-sharing path resistance ``R_pre = r_on1 + R_bl`` (Eq. 3)."""
        return self.tech.ron_access + self.rbl

    def u(self, t: float) -> float:
        """The charge-sharing progress function ``U(t)`` of Eq. 3.

        ``U`` decays from 1 at ``t = 0`` to 0 as sharing completes;
        ``Delta V_bl(t) = V_sense (1 - U(t))`` (Eq. 5).
        """
        if t <= 0:
            return 1.0
        cs, cbl = self.tech.cs, self.cbl
        r = self.r_pre
        term_slow = cs * math.exp(-t / (r * cbl))
        term_fast = cbl * math.exp(-t / (r * cs))
        return (term_slow + term_fast) / (cs + cbl)

    def vsense_ideal(self, v_cell: float) -> float:
        """Uncoupled maximum bitline swing ``V_sense`` (Eq. 4), signed.

        ``C_s / (C_s + C_bl) * (V_cell - V_eq)`` — positive for a stored
        1, negative for a stored 0.
        """
        tech = self.tech
        return tech.cs / (tech.cs + self.cbl) * (v_cell - tech.veq)

    def delta_vbl(self, t: float, vsense: float) -> float:
        """Developing bitline differential at time ``t`` (Eq. 5)."""
        return vsense * (1.0 - self.u(t))

    # ------------------------------------------------------------------ #
    # Eq. 6–8: coupled sense voltages                                      #
    # ------------------------------------------------------------------ #

    def lself(self, v_cells: Sequence[float]) -> np.ndarray:
        """Signed self-terms ``L_self,i = V_s(i) - V_bl = V_s(i) - V_eq``.

        The paper writes ``L_self`` with an absolute value; keeping the
        sign lets one linear solve handle arbitrary data patterns, where
        opposing neighbours *reduce* each other's swing through ``K2``.
        """
        veq = self.tech.veq
        return np.asarray([v - veq for v in v_cells], dtype=float)

    def coupling_matrix(self, n: int) -> np.ndarray:
        """The tridiagonal matrix ``K`` of Eq. 8 for ``n`` bitlines."""
        if n <= 0:
            raise ValueError(f"need at least one bitline, got {n}")
        K = np.eye(n)
        off = -self.k2
        for i in range(n - 1):
            K[i, i + 1] = off
            K[i + 1, i] = off
        return K

    def vsense_coupled(self, v_cells: Sequence[float]) -> np.ndarray:
        """Closed-form coupled sense voltages ``V_sense = K1 K^{-1} L_self`` (Eq. 8).

        Args:
            v_cells: stored cell voltages along the activated wordline
                (one per bitline).

        Returns:
            Signed per-bitline maximum swing.  The scaling uses
            ``C_s / (C_s + C_bl)``-normalized ``K1`` so that with zero
            coupling this reduces exactly to :meth:`vsense_ideal`.
        """
        lself = self.lself(v_cells)
        n = len(lself)
        K = self.coupling_matrix(n)
        return self.k1 * np.linalg.solve(K, lself)

    def vsense_pattern(self, pattern: Sequence[int]) -> np.ndarray:
        """Coupled sense voltages for a 0/1 data pattern along the wordline."""
        if any(bit not in (0, 1) for bit in pattern):
            raise ValueError(f"pattern must contain only 0/1, got {list(pattern)}")
        tech = self.tech
        v_cells = [tech.vdd if bit else tech.vss for bit in pattern]
        return self.vsense_coupled(v_cells)

    def worst_case_vsense(self, pattern: Sequence[int]) -> float:
        """Smallest swing magnitude across the wordline for ``pattern``.

        This is the victim cell that determines the pre-sensing delay:
        the sense amplifier must wait until even the weakest bitline
        differential reaches the margin.
        """
        swings = np.abs(self.vsense_pattern(pattern))
        return float(swings.min())

    # ------------------------------------------------------------------ #
    # Delay                                                               #
    # ------------------------------------------------------------------ #

    #: Largest fraction of the worst-case swing the sense margin may take.
    #: A fixed absolute margin cannot exceed the signal a long bitline
    #: can develop; real sense-amp offset budgets scale with available
    #: signal, so the margin is capped at this fraction of the swing.
    MARGIN_SWING_CAP = 0.92

    def effective_sense_margin(self, pattern: Optional[Sequence[int]] = None) -> float:
        """The sense margin actually used for this geometry.

        ``min(tech.sense_margin, MARGIN_SWING_CAP * worst-case swing)`` —
        equal to the technology margin on the paper's evaluation bank,
        reduced on larger arrays whose coupled swing falls below it.
        """
        if pattern is None:
            pattern = [i % 2 for i in range(8)]
        return min(
            self.tech.sense_margin,
            self.MARGIN_SWING_CAP * self.worst_case_vsense(pattern),
        )

    def wordline_delay(self) -> float:
        """Elmore rise delay of the far wordline end (column-count term)."""
        return self.tech.wordline_delay(self.geometry)

    @property
    def wordline_kick(self) -> float:
        """Bitline boost from the rising wordline through ``C_bw`` (volts).

        When the wordline steps to ``V_pp``, the bitline-to-wordline
        parasitic injects ``C_bw / C_total * V_pp`` onto every bitline.
        Eq. 6 treats the wordline as static (``dQ4 = C_bw V_sense``), so
        the paper's closed form omits this common-mode term; circuit
        simulation shows it (~27 mV at the default technology).  It is
        common-mode across the bitline pair only when both lines carry
        a ``C_bw`` — in an open-bitline victim analysis it adds to the
        developed signal, which is why the validation suite compares
        the circuit against ``V_sense + wordline_kick``.
        """
        tech = self.tech
        c_total = tech.cs + self.cbl + 2.0 * tech.cbb + tech.cbw
        return tech.cbw / c_total * tech.vpp

    def delay(
        self,
        criterion: str = "sense-margin",
        settle_fraction: float = 0.95,
        pattern: Optional[Sequence[int]] = None,
        include_wordline: bool = True,
    ) -> float:
        """Continuous pre-sensing delay ``tau_pre`` under a criterion.

        Args:
            criterion: ``"sense-margin"`` or ``"settle"`` (see module
                docstring).
            settle_fraction: completion fraction for the ``"settle"``
                criterion (the paper's Table 1 uses 95%).
            pattern: data pattern along the wordline; defaults to the
                worst case for the geometry (alternating 0/1, which
                minimizes the victim swing through ``K2``).
            include_wordline: add the far-end wordline rise delay.

        Raises:
            ValueError: if the sense margin can never be reached (the
                coupled swing is smaller than the margin — an unsensable
                configuration).
        """
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")
        if not 0 < settle_fraction < 1:
            raise ValueError(f"settle_fraction must be in (0,1), got {settle_fraction}")

        if pattern is None:
            pattern = [i % 2 for i in range(8)]

        if criterion == "settle":
            target_u = 1.0 - settle_fraction
        else:
            vsense = self.worst_case_vsense(pattern)
            margin = self.effective_sense_margin(pattern)
            if vsense <= margin:
                raise ValueError(
                    f"sense margin {margin:.3f} V unreachable: coupled swing is "
                    f"only {vsense:.3f} V for pattern {list(pattern)}"
                )
            target_u = 1.0 - margin / vsense

        t_share = self._solve_u(target_u)
        return t_share + (self.wordline_delay() if include_wordline else 0.0)

    def _solve_u(self, target: float) -> float:
        """Invert ``U(t) = target`` numerically (monotone decreasing)."""
        if target >= 1.0:
            return 0.0
        # Upper bracket: a generous multiple of the slow time constant.
        t_hi = 50.0 * self.r_pre * max(self.cbl, self.tech.cs)
        if self.u(t_hi) > target:
            raise ValueError(f"charge sharing never reaches U={target}")
        return float(_brentq(lambda t: self.u(t) - target, 0.0, t_hi, xtol=1e-15))

    def delay_cycles(
        self,
        clock_period: float,
        criterion: str = "sense-margin",
        settle_fraction: float = 0.95,
        pattern: Optional[Sequence[int]] = None,
    ) -> int:
        """Quantized pre-sensing delay in cycles of ``clock_period``."""
        return to_cycles(
            self.delay(criterion=criterion, settle_fraction=settle_fraction, pattern=pattern),
            clock_period,
        )
