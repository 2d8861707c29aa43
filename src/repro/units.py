"""SI unit helpers used throughout the VRL-DRAM reproduction.

All internal quantities are plain SI floats: seconds, volts, amperes,
farads, ohms, square metres.  These constants make literals in calibration
code and tests self-documenting, e.g. ``64 * MS`` or ``24 * FF``.
"""

from __future__ import annotations

import math

# --- time ---------------------------------------------------------------
S = 1.0
MS = 1e-3
NS = 1e-9

# --- capacitance ---------------------------------------------------------
F = 1.0
FF = 1e-15
AF = 1e-18

# --- resistance ----------------------------------------------------------
OHM = 1.0
KOHM = 1e3

# --- voltage / current ---------------------------------------------------
V = 1.0
A = 1.0
UA = 1e-6

# --- length / area -------------------------------------------------------
M = 1.0
NM = 1e-9
UM2 = 1e-12


def to_cycles(time_s: float, clock_period_s: float) -> int:
    """Quantize a continuous delay to a whole number of clock cycles.

    DRAM timing parameters are specified to the memory controller as
    integer multiples of the clock period; any fractional remainder must
    round *up* (the controller cannot issue mid-cycle), so this is a
    ceiling division with a small epsilon guard against floating-point
    noise (e.g. ``3.0000000004`` cycles must not become 4).  The guard
    is ``1e-9`` cycles or four ulps of the cycle ratio, whichever is
    larger: at refresh-period magnitudes (10^7-10^8 cycles) one ulp of
    the ratio exceeds ``1e-9``, and an exact multiple ``k * period``
    must still quantize to ``k``.

    Args:
        time_s: continuous delay in seconds (must be >= 0).
        clock_period_s: clock period in seconds (must be > 0).

    Returns:
        The smallest integer cycle count whose duration covers ``time_s``.
    """
    if clock_period_s <= 0:
        raise ValueError(f"clock period must be positive, got {clock_period_s}")
    if time_s < 0:
        raise ValueError(f"delay must be non-negative, got {time_s}")
    ratio = time_s / clock_period_s
    eps = max(1e-9, 4 * math.ulp(ratio))
    return max(0, math.ceil(ratio - eps))

