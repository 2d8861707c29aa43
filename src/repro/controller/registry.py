"""First-class mechanism registry: name → builder + capability flags.

``build_policy`` used to be an if-ladder over four hardcoded names;
every consumer that wanted "the available mechanisms" (the CLI's
``--policy`` choices, the baselines study, error messages) kept its own
copy of the list.  The registry makes mechanisms discoverable instead:
each entry couples a builder — ``(tech, profile, binning, nbits) →``
:class:`~repro.controller.refresh.RefreshPolicy` — with the capability
flags the scheduling stack dispatches on:

* ``needs_trace`` — the mechanism's benefit only materializes against
  a demand-access stream (refresh-only runs price it like its
  conventional base);
* ``reorders_refresh`` — the simulators apply the DARP idle-window
  arbitration (:func:`~repro.sim.schedule.should_defer_refresh`);
* ``modulates_access`` — the simulators route demand latencies through
  :meth:`~repro.controller.refresh.RefreshPolicy.access_latencies`.

Flags default from the policy class attributes when ``policy=`` is
passed at registration, so the registry can never drift from the class.
``examples/custom_policy.py`` and the tests register their own
mechanisms into :data:`MECHANISMS`; everything built through the
registry is bit-identical to direct construction (invariant 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from ..model.trfc import RefreshLatencyModel
from ..mprsf.calculator import MPRSFCalculator
from ..retention.binning import BinningResult
from ..retention.profiler import RetentionProfile
from ..technology import TechnologyParams
from .mechanisms import AVATARPolicy, ChargeCachePolicy, DARPPolicy
from .refresh import (
    FGRPolicy,
    FixedRefreshPolicy,
    RAIDRPolicy,
    RefreshPolicy,
    VRLAccessPolicy,
    VRLPolicy,
)

__all__ = ["MECHANISMS", "MechanismInfo", "MechanismRegistry"]

#: Builder signature every registered mechanism provides.
Builder = Callable[
    [TechnologyParams, RetentionProfile, BinningResult, int], RefreshPolicy
]


@dataclass(frozen=True)
class MechanismInfo:
    """One registered mechanism: how to build it and what it needs.

    Attributes:
        name: registry key (the ``--policy`` / ``mechanism`` name).
        builder: ``(tech, profile, binning, nbits) → RefreshPolicy``.
        description: one-line summary for help text and matrix tables.
        needs_trace: benefit only visible against a demand trace.
        reorders_refresh: simulators apply out-of-order refresh
            arbitration (idle-window deferral, write-drain overlap).
        modulates_access: simulators route demand latencies through the
            policy's access-latency hook.
    """

    name: str
    builder: Builder
    description: str = ""
    needs_trace: bool = False
    reorders_refresh: bool = False
    modulates_access: bool = False


class MechanismRegistry:
    """Name → :class:`MechanismInfo` mapping with helpful errors."""

    def __init__(self) -> None:
        self._infos: dict[str, MechanismInfo] = {}

    def register(
        self,
        name: str,
        builder: Builder,
        *,
        description: str = "",
        policy: Optional[type] = None,
        needs_trace: Optional[bool] = None,
        reorders_refresh: Optional[bool] = None,
        modulates_access: Optional[bool] = None,
        replace: bool = False,
    ) -> MechanismInfo:
        """Register a mechanism builder under ``name``.

        Capability flags left as ``None`` default from the attributes
        of ``policy`` (when given) so the registry entry cannot drift
        from the policy class; without a class they default to False.
        Re-registering an existing name raises unless ``replace=True``
        (examples and tests re-execute their modules).
        """
        if not name:
            raise ValueError("mechanism name must be non-empty")
        if not replace and name in self._infos:
            raise ValueError(
                f"mechanism {name!r} already registered; pass replace=True "
                "to override"
            )

        def flag(value: Optional[bool], attribute: str) -> bool:
            if value is not None:
                return bool(value)
            return bool(getattr(policy, attribute, False))

        info = MechanismInfo(
            name=name,
            builder=builder,
            description=description,
            needs_trace=flag(needs_trace, "needs_trace"),
            reorders_refresh=flag(reorders_refresh, "reorders_refresh"),
            modulates_access=flag(modulates_access, "modulates_access"),
        )
        self._infos[name] = info
        return info

    def get(self, name: str) -> MechanismInfo:
        """The registration of ``name``, or a ValueError naming the rest."""
        try:
            return self._infos[name]
        except KeyError:
            raise ValueError(
                f"unknown policy {name!r}; registered mechanisms: "
                f"{', '.join(self.names())}"
            ) from None

    def build(
        self,
        name: str,
        tech: TechnologyParams,
        profile: RetentionProfile,
        binning: BinningResult,
        nbits: int = 2,
    ) -> RefreshPolicy:
        """Build ``name`` — bit-identical to direct construction."""
        return self.get(name).builder(tech, profile, binning, nbits)

    def names(self) -> list[str]:
        """Registered mechanism names, sorted for stable help text."""
        return sorted(self._infos)

    def describe(self) -> list[MechanismInfo]:
        """All registrations in :meth:`names` order."""
        return [self._infos[name] for name in self.names()]

    def __contains__(self, name: object) -> bool:
        return name in self._infos

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._infos)


#: The process-wide default registry every consumer dispatches through.
MECHANISMS = MechanismRegistry()


# --------------------------------------------------------------------- #
# Built-in mechanism builders                                            #
# --------------------------------------------------------------------- #


def _refresh_model(tech, profile):
    model = RefreshLatencyModel(tech, profile.geometry)
    return model, model.full_refresh().total_cycles


def _timing(tech):
    # Lazy: repro.sim imports this package, so the cycle-quantization
    # helpers can only be pulled in at build time, never at import time.
    from ..sim.timing import DRAMTiming

    return DRAMTiming.from_technology(tech)


def _build_fixed(tech, profile, binning, nbits):
    _, tau_full = _refresh_model(tech, profile)
    return FixedRefreshPolicy(profile.geometry.rows, tau_full)


def _build_fgr(mode):
    def build(tech, profile, binning, nbits):
        _, tau_full = _refresh_model(tech, profile)
        return FGRPolicy(profile.geometry.rows, tau_full, mode=mode)

    return build


def _build_raidr(tech, profile, binning, nbits):
    _, tau_full = _refresh_model(tech, profile)
    return RAIDRPolicy(binning, tau_full)


def _build_vrl(cls):
    def build(tech, profile, binning, nbits):
        model, tau_full = _refresh_model(tech, profile)
        partial = model.partial_refresh()
        calculator = MPRSFCalculator(tech, profile.geometry, model)
        mprsf = calculator.mprsf_for_rows(
            profile.row_retention,
            binning.row_period,
            partial_timing=partial,
            max_count=(1 << nbits) - 1,
        )
        return cls(binning, mprsf, tau_full, partial.total_cycles, nbits)

    return build


def _build_darp(tech, profile, binning, nbits):
    _, tau_full = _refresh_model(tech, profile)
    # JEDEC lets a controller postpone up to 8 tREFI-paced refreshes;
    # the same budget bounds DARP's out-of-order deferral here.
    timing = _timing(tech)
    return DARPPolicy(
        profile.geometry.rows, tau_full, max_defer_cycles=8 * timing.trefi
    )


def _build_chargecache(tech, profile, binning, nbits):
    _, tau_full = _refresh_model(tech, profile)
    timing = _timing(tech)
    # A highly-charged row needs markedly less sensing time: shave the
    # bulk of tRCD off the activation of a charge-cache hit.
    discount = max(1, round(0.6 * timing.trcd))
    return ChargeCachePolicy(
        profile.geometry.rows,
        tau_full,
        discount_cycles=discount,
        lifetime_cycles=timing.cycles(ChargeCachePolicy.DEFAULT_LIFETIME_SECONDS),
    )


def _build_avatar(tech, profile, binning, nbits):
    _, tau_full = _refresh_model(tech, profile)
    return AVATARPolicy(binning, tau_full, profile)


MECHANISMS.register(
    "fixed", _build_fixed, policy=FixedRefreshPolicy,
    description="conventional JEDEC 64 ms full refresh",
)
MECHANISMS.register(
    "fgr-2x", _build_fgr(2), policy=FGRPolicy,
    description="DDR4 FGR: 2x rate, ~0.62x tRFC per op",
)
MECHANISMS.register(
    "fgr-4x", _build_fgr(4), policy=FGRPolicy,
    description="DDR4 FGR: 4x rate, ~0.38x tRFC per op",
)
MECHANISMS.register(
    "raidr", _build_raidr, policy=RAIDRPolicy,
    description="retention-binned schedule [27]",
)
MECHANISMS.register(
    "vrl", _build_vrl(VRLPolicy), policy=VRLPolicy,
    description="binned schedule + truncated operations (the paper)",
)
MECHANISMS.register(
    "vrl-access", _build_vrl(VRLAccessPolicy), policy=VRLAccessPolicy,
    description="VRL + access-aware counter resets (the paper)",
)
MECHANISMS.register(
    "darp", _build_darp, policy=DARPPolicy,
    description="out-of-order per-bank refresh into idle windows",
)
MECHANISMS.register(
    "chargecache", _build_chargecache, policy=ChargeCachePolicy,
    description="recently-accessed-row cache lowers activation latency",
)
MECHANISMS.register(
    "avatar", _build_avatar, policy=AVATARPolicy,
    description="VRT-aware online profiling upgrades rows between windows",
)
