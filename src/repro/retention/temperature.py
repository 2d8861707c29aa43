"""Temperature dependence of DRAM retention.

DRAM charge leakage is thermally activated: retention time roughly
halves for every ~10 degC of temperature increase (JEDEC doubles the
refresh rate above 85 degC for exactly this reason; Liu et al. [28]
characterize the exponential dependence).  Retention profiles are
measured at a reference temperature; deploying a VRL schedule at a
different operating temperature means rescaling the profile before
computing MPRSF — or, at runtime, falling back to full refreshes when a
thermal sensor reports a hot spell (see ``examples/custom_policy.py``).

The model here is the standard exponential derating

    retention(T) = retention(T_ref) * 2^-((T - T_ref) / halving)

with ``halving`` ~10 degC.  It composes with the VRT guard band: the
guard covers *unpredicted* retention loss, temperature covers the
*predicted*, sensor-visible part.
"""

from __future__ import annotations

from dataclasses import dataclass

from .profiler import RetentionProfile

#: Temperature at which profiles are assumed to be measured (degC).
REFERENCE_TEMPERATURE = 45.0

#: Retention halves per this many degrees Celsius.
DEFAULT_HALVING_DEGC = 10.0


@dataclass(frozen=True)
class TemperatureModel:
    """Exponential retention derating with temperature.

    Attributes:
        reference: profiling temperature in degC.
        halving: degrees of warming that halve retention.
    """

    reference: float = REFERENCE_TEMPERATURE
    halving: float = DEFAULT_HALVING_DEGC

    def __post_init__(self) -> None:
        if self.halving <= 0:
            raise ValueError(f"halving must be positive, got {self.halving}")

    def retention_factor(self, temperature: float) -> float:
        """Multiplier on profiled retention at ``temperature`` degC.

        1.0 at the reference; 0.5 one halving above; 2.0 one below.
        """
        return float(2.0 ** (-(temperature - self.reference) / self.halving))

    def scale_profile(self, profile: RetentionProfile, temperature: float) -> RetentionProfile:
        """A profile as it would look at ``temperature``.

        Returns a new :class:`RetentionProfile`; the input is untouched.
        Cell-level data, if present, is scaled consistently.
        """
        factor = self.retention_factor(temperature)
        return RetentionProfile(
            geometry=profile.geometry,
            row_retention=profile.row_retention * factor,
            cell_retention=(
                profile.cell_retention * factor
                if profile.cell_retention is not None
                else None
            ),
        )
