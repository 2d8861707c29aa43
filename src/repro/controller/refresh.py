"""Refresh scheduling policies: conventional, RAIDR, VRL, VRL-Access.

A policy states its refresh decisions once, in two forms written
together in one class body:

* the **kernel hooks** ``_decide_batch`` / ``_on_access_batch`` —
  Algorithm 1 of the paper for the VRL variants, evaluated vectorized
  over an array of rows;
* :meth:`RefreshPolicy.timeline_spec` — the same automaton in closed
  form (:class:`TimelineSpec`), which is what the simulators price:
  the fused timeline, the bank engine and the rank simulator.

:meth:`~RefreshPolicy.row_periods` gives the per-row refresh periods
(64 ms for the conventional baseline, the RAIDR bin period otherwise)
and :meth:`~RefreshPolicy.access_latencies` the demand-access latency
of access-modulating mechanisms.  ``decide`` / ``on_access_rows`` and
the single-row ``refresh_row`` / ``on_access`` /
``access_latency_cycles`` are final wrappers over those hooks; the
tests' oracles drive the kernel through them.  The single-row
``row_period`` is likewise final, over ``row_periods``.
``__init_subclass__`` refuses, with a ``TypeError``, a subclass that
overrides a wrapper or changes a kernel hook without restating
``timeline_spec``, so the spec always describes the kernel and one
method states the periods.

Policies are deliberately free of timing bookkeeping — they answer
"what refresh does this row get", :mod:`repro.sim.schedule` owns
"when".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from ..retention.binning import BinningResult
from ..retention.profiler import RetentionProfile
from ..technology import TechnologyParams
from ..units import MS
from .counters import CounterFile

#: The JEDEC worst-case refresh period used by the conventional baseline.
CONVENTIONAL_PERIOD = 64 * MS

#: Kind code of a charge-complete refresh in the batch kernel's arrays.
KIND_FULL = 0

#: Kind code of a truncated (partial) refresh in the batch kernel's arrays.
KIND_PARTIAL = 1


class RefreshKind(Enum):
    """Whether a refresh operation is charge-complete or truncated."""

    FULL = "full"
    PARTIAL = "partial"


#: Kind-code → enum mapping (index with ``KIND_FULL`` / ``KIND_PARTIAL``).
_KIND_BY_CODE = (RefreshKind.FULL, RefreshKind.PARTIAL)


#: Final wrappers no subclass may override, each with what to override
#: instead: the kernel hooks, or ``row_periods`` for the period surface.
_KERNEL = "_decide_batch / _on_access_batch together with timeline_spec"
_FINAL_WRAPPERS = {
    "decide": _KERNEL,
    "on_access_rows": _KERNEL,
    "refresh_row": _KERNEL,
    "on_access": _KERNEL,
    "access_latency_cycles": _KERNEL,
    "row_period": "row_periods",
}

#: Kernel hooks a subclass may override, together with ``timeline_spec``.
_KERNEL_HOOKS = ("_decide_batch", "_on_access_batch")


@dataclass(frozen=True)
class RefreshCommand:
    """One refresh issued to a row: its kind and latency in cycles."""

    row: int
    kind: RefreshKind
    latency_cycles: int


@dataclass(frozen=True)
class TimelineSpec:
    """Closed-form description of a policy's refresh automaton.

    The fused timeline (:class:`~repro.sim.timeline.FusedTimeline`)
    evaluates *all* deadline crossings of a simulation at once instead
    of driving :meth:`RefreshPolicy.decide` round by round.  That is
    only possible because every policy's per-row state machine
    is the same modular counter: starting ``phase`` crossings into a
    cadence of ``cycle_len`` (Algorithm 1's ``rcount``/``mprsf`` with
    ``cycle_len = mprsf + 1``), the row's ``k``-th crossing is a full
    refresh exactly when ``(k + phase + 1) % cycle_len == 0``, and an
    access-driven reset (``resets_on_access``) restarts the cadence at
    phase 0.  A spec is a *snapshot*: the timeline reads it once per
    evaluation and stores the end-of-timeline phase back through
    ``commit`` so counter state stays identical to driving the kernel
    hooks round by round (the tests' oracle).

    Attributes:
        cycle_len: per-row full-refresh cadence, ``int64 (n_rows,)``;
            ``1`` means every crossing is full.
        phase: per-row crossings already taken since the last full
            refresh (``rcount``), each in ``[0, cycle_len)``.
        resets_on_access: whether a demand access restarts the row's
            cadence (VRL-Access semantics).
        kind_latencies: per-kind latencies in cycles, indexed by
            ``KIND_FULL`` / ``KIND_PARTIAL``.
        commit: callback receiving the end-of-timeline per-row phase;
            must leave the policy's counters exactly as the equivalent
            sequence of :meth:`RefreshPolicy.decide` calls would.
    """

    cycle_len: np.ndarray
    phase: np.ndarray
    resets_on_access: bool
    kind_latencies: np.ndarray
    commit: Callable[[np.ndarray], None]


class RefreshPolicy:
    """Base class: every refresh is full, every row at one fixed period."""

    name = "base"

    #: Does the mechanism's benefit only materialize against a demand
    #: trace?  (Registry capability flag; refresh-only runs price such
    #: policies like their conventional base.)
    needs_trace = False

    #: May the simulators defer a due refresh past colliding reads (the
    #: DARP idle-window arbitration in :mod:`repro.sim.schedule`)?
    reorders_refresh = False

    #: Does the policy adjust demand-access latencies through
    #: :meth:`access_latencies`?
    modulates_access = False

    #: How far past its deadline a deferred refresh may be pushed, in
    #: cycles.  Only consulted when ``reorders_refresh`` is true.
    refresh_slack_cycles = 0

    def __init__(self, n_rows: int, tau_full: int, period: float = CONVENTIONAL_PERIOD):
        if n_rows <= 0:
            raise ValueError(f"need at least one row, got {n_rows}")
        if tau_full <= 0:
            raise ValueError(f"tau_full must be positive, got {tau_full}")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.n_rows = n_rows
        self.tau_full = tau_full
        self._period = period
        self._kind_latencies = np.array([tau_full, tau_full], dtype=np.int64)

    @property
    def kind_latencies(self) -> np.ndarray:
        """Per-kind latencies in cycles, indexed by kind code.

        ``kind_latencies[KIND_FULL]`` is the full-refresh latency and
        ``kind_latencies[KIND_PARTIAL]`` the partial-refresh latency
        (equal to the full latency for policies that never truncate).
        """
        view = self._kind_latencies.view()
        view.flags.writeable = False
        return view

    def row_period(self, row: int) -> float:
        """Refresh period of ``row`` in seconds: ``row_periods()[row]``.

        Final: a policy states its periods once, in :meth:`row_periods`.
        """
        self._check_row(row)
        return float(self.row_periods()[row])

    def row_periods(self) -> np.ndarray:
        """Vector of per-row refresh periods (seconds, ``dtype=float``)."""
        return np.full(self.n_rows, self._period, dtype=float)

    def __init_subclass__(cls, **kwargs):
        """Refuse a subclass whose ``timeline_spec`` could miss its kernel.

        The simulators price every policy from :meth:`timeline_spec` and
        :meth:`row_periods`, so a class body may neither override a final
        wrapper (``decide``, ``on_access_rows``, ``refresh_row``,
        ``on_access``, ``access_latency_cycles``, ``row_period``) nor
        define a kernel hook
        (``_decide_batch`` / ``_on_access_batch``) without restating
        ``timeline_spec`` beside it.

        Raises:
            TypeError: naming the class and the offending method.
        """
        super().__init_subclass__(**kwargs)
        body = vars(cls)
        for name, instead in _FINAL_WRAPPERS.items():
            if name in body:
                raise TypeError(
                    f"{cls.__name__} overrides {name}, a final wrapper; "
                    f"override {instead} instead"
                )
        if "timeline_spec" not in body:
            for name in _KERNEL_HOOKS:
                if name in body:
                    raise TypeError(
                        f"{cls.__name__} defines {name} without timeline_spec; "
                        "the simulators price the spec, so restate it in the same "
                        "class body"
                    )

    # ------------------------------------------------------------------ #
    # Batch kernel                                                        #
    # ------------------------------------------------------------------ #

    def decide(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Refresh every row in ``rows`` now, as one vectorized batch.

        The batch equivalent of calling :meth:`refresh_row` once per
        entry: counter state is updated in place and the decisions come
        back as arrays.  Row indices must be unique within one call —
        the deadline schedule guarantees this (a row has at most one
        deadline per scheduling round); with duplicates the decisions
        would be taken against one counter snapshot instead of
        sequentially.

        Args:
            rows: 1-D array of row indices to refresh.

        Returns:
            ``(kinds, latency_cycles)`` — a ``uint8`` array of kind
            codes (``KIND_FULL`` / ``KIND_PARTIAL``) and an ``int64``
            array of per-row refresh latencies in cycles.
        """
        return self._decide_batch(self._check_rows(rows))

    def on_access_rows(self, rows: np.ndarray) -> None:
        """Notify the policy that every row in ``rows`` was activated.

        The batch equivalent of calling :meth:`on_access` once per
        entry.  Duplicates are harmless (an access-driven reset is
        idempotent).
        """
        self._on_access_batch(self._check_rows(rows))

    def _decide_batch(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized decision hook: base policies issue only full refreshes."""
        kinds = np.zeros(len(rows), dtype=np.uint8)
        return kinds, self._kind_latencies[kinds]

    def _on_access_batch(self, rows: np.ndarray) -> None:
        """Vectorized access hook: base policies ignore accesses."""

    # ------------------------------------------------------------------ #
    # Closed form                                                         #
    # ------------------------------------------------------------------ #

    def timeline_spec(self) -> TimelineSpec:
        """Closed-form automaton snapshot, the form the simulators price.

        Base policies issue only full refreshes: a degenerate cadence of
        length 1 with no access coupling.  A subclass that changes a
        kernel hook restates this in the same class body
        (:meth:`__init_subclass__` enforces it).
        """
        n = self.n_rows
        return TimelineSpec(
            cycle_len=np.ones(n, dtype=np.int64),
            phase=np.zeros(n, dtype=np.int64),
            resets_on_access=False,
            kind_latencies=self.kind_latencies,
            commit=lambda final_phase: None,
        )

    # ------------------------------------------------------------------ #
    # Single-row wrappers                                                 #
    # ------------------------------------------------------------------ #

    def refresh_row(self, row: int) -> RefreshCommand:
        """Refresh ``row`` now; returns the issued command.

        A single-row wrapper over the batch kernel.
        """
        self._check_row(row)
        kinds, latencies = self._decide_batch(np.array([row], dtype=np.int64))
        return RefreshCommand(row, _KIND_BY_CODE[int(kinds[0])], int(latencies[0]))

    def on_access(self, row: int) -> None:
        """Notify the policy that ``row`` was activated by a read/write."""
        self._check_row(row)
        self._on_access_batch(np.array([row], dtype=np.int64))

    def access_latencies(
        self,
        rows: np.ndarray,
        base_cycles: np.ndarray,
        row_hit: np.ndarray,
        cycles: np.ndarray,
    ) -> np.ndarray:
        """Service latencies (cycles) the simulators should charge accesses.

        The access-latency hook of access-modulating mechanisms
        (``modulates_access``): the bank engine classifies each demand
        request's hit/miss/conflict latency and, for such policies,
        routes a whole window of requests through here in one call —
        ChargeCache discounts activations of still-charged rows, the
        base policy returns ``base_cycles`` unchanged.  Requests come in
        issue order with their arrival ``cycles`` (this is the only
        policy entry point that sees the clock), and state such as a
        cache carries from one call to the next, so a stream split into
        calls anywhere prices as one call would.  The hook must return a
        positive latency per request and must neither read nor write
        refresh or :meth:`on_access` state: the engine prices refreshes
        and access resets apart from it, so refresh statistics stay
        identical whether or not it is consulted.

        Args:
            rows: 1-D ``int64`` rows of the requests, in issue order.
            base_cycles: the bank's hit/miss/conflict latency of each.
            row_hit: whether each request hits the open row.
            cycles: each request's arrival cycle.

        Returns:
            An ``int64`` array of service latencies, one per request.
        """
        self._check_rows(rows)
        return np.array(base_cycles, dtype=np.int64)

    def access_latency_cycles(
        self, row: int, base_cycles: int, row_hit: bool, cycle: int
    ) -> int:
        """Service latency of one request: :meth:`access_latencies` on a one-request window."""
        self._check_row(row)
        return int(self.access_latencies(
            np.array([row], dtype=np.int64),
            np.array([base_cycles], dtype=np.int64),
            np.array([row_hit], dtype=bool),
            np.array([cycle], dtype=np.int64),
        )[0])

    def reset(self) -> None:
        """Clear mutable state (counters) for a fresh simulation."""

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range [0, {self.n_rows})")

    def _check_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ValueError(f"rows must be a 1-D index array, got shape {rows.shape}")
        if len(rows) and (int(rows.min()) < 0 or int(rows.max()) >= self.n_rows):
            raise IndexError(f"row indices out of range [0, {self.n_rows})")
        return rows


class FixedRefreshPolicy(RefreshPolicy):
    """Conventional JEDEC refresh: every row fully refreshed every 64 ms."""

    name = "fixed-64ms"


class FGRPolicy(RefreshPolicy):
    """JEDEC DDR4 Fine-Granularity Refresh (1x/2x/4x modes).

    The industry's own latency-oriented refresh option (Bhati et al.
    [1]): in 2x/4x mode the controller refreshes ``mode`` times as
    often, each operation covering proportionally fewer rows — so the
    per-operation ``tRFC`` shrinks, but *sub-linearly* (JEDEC DDR4 4Gb:
    tRFC1/2/4 = 260/160/110 ns, i.e. ~0.62x per doubling instead of
    0.5x).  FGR trades shorter blocking windows for *more total* refresh
    time — the opposite direction from VRL, which keeps the schedule and
    shortens the operations; comparing them isolates what circuit-aware
    truncation buys over simple command slicing.

    In this per-row simulator, FGR-Nx refreshes every row N times as
    often with a per-operation latency of ``tau_full * shrink^log2(N)``.

    Args:
        n_rows: rows in the bank.
        tau_full: 1x full-refresh latency in cycles.
        mode: 1, 2, or 4 (JEDEC FGR modes).
        shrink: per-doubling tRFC multiplier (JEDEC-typical ~0.62).
    """

    name = "fgr"

    #: JEDEC-typical tRFC shrink per granularity doubling.
    DEFAULT_SHRINK = 0.62

    def __init__(
        self,
        n_rows: int,
        tau_full: int,
        mode: int = 2,
        shrink: float = DEFAULT_SHRINK,
        period: float = CONVENTIONAL_PERIOD,
    ):
        if mode not in (1, 2, 4):
            raise ValueError(f"FGR mode must be 1, 2 or 4, got {mode}")
        if not 0.5 <= shrink <= 1.0:
            raise ValueError(
                f"shrink must be in [0.5, 1.0] (0.5 = ideal linear), got {shrink}"
            )
        super().__init__(n_rows, tau_full, period / mode)
        self.mode = mode
        doublings = {1: 0, 2: 1, 4: 2}[mode]
        import math

        self.tau_op = max(1, math.ceil(tau_full * shrink**doublings))
        self.name = f"fgr-{mode}x"
        # Every operation is a (shorter) full refresh at period/mode.
        self._kind_latencies = np.array([self.tau_op, self.tau_op], dtype=np.int64)


class RAIDRPolicy(RefreshPolicy):
    """RAIDR [27]: retention-binned refresh periods, full refreshes only.

    Args:
        binning: the bank's RAIDR bin assignment.
        tau_full: full-refresh latency in cycles.
    """

    name = "raidr"

    def __init__(self, binning: BinningResult, tau_full: int):
        super().__init__(len(binning.row_period), tau_full)
        self.binning = binning

    def row_periods(self) -> np.ndarray:
        return np.asarray(self.binning.row_period, dtype=float).copy()


class VRLPolicy(RAIDRPolicy):
    """VRL-DRAM (Algorithm 1): partial refreshes whenever MPRSF allows.

    On each refresh of row ``r``: if ``rcount[r] == mprsf[r]`` issue a
    full refresh and reset ``rcount[r]``; otherwise issue a partial
    refresh and increment ``rcount[r]``.

    Args:
        binning: RAIDR bin assignment (VRL runs on top of RAIDR).
        mprsf: per-row MPRSF values (will be saturated to the counter
            width).
        tau_full: full-refresh latency in cycles.
        tau_partial: partial-refresh latency in cycles.
        nbits: counter width (the paper evaluates 2).
    """

    name = "vrl"

    def __init__(
        self,
        binning: BinningResult,
        mprsf: np.ndarray,
        tau_full: int,
        tau_partial: int,
        nbits: int = 2,
    ):
        super().__init__(binning, tau_full)
        if tau_partial <= 0 or tau_partial > tau_full:
            raise ValueError(
                f"tau_partial must be in (0, tau_full={tau_full}], got {tau_partial}"
            )
        self.tau_partial = tau_partial
        self.nbits = nbits
        self.mprsf = CounterFile(self.n_rows, nbits, initial=np.asarray(mprsf))
        self.rcount = CounterFile(self.n_rows, nbits)
        self._kind_latencies = np.array([tau_full, tau_partial], dtype=np.int64)

    def _decide_batch(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 1, lines 2-8, vectorized over ``rows``."""
        full = self.rcount.get_rows(rows) == self.mprsf.get_rows(rows)
        self.rcount.reset_rows(rows[full])
        self.rcount.increment_rows(rows[~full])
        kinds = np.where(full, KIND_FULL, KIND_PARTIAL).astype(np.uint8)
        return kinds, self._kind_latencies[kinds]

    def timeline_spec(self) -> TimelineSpec:
        """Algorithm 1 as a modular cadence: full every ``mprsf + 1``-th.

        From ``rcount == r``, the next full refresh lands ``mprsf - r``
        crossings away and then every ``mprsf + 1`` crossings — so
        ``cycle_len = mprsf + 1`` and ``phase = rcount``.  ``rcount``
        never exceeds ``mprsf`` (it resets on the full), which keeps the
        closed form exact.  Plain VRL ignores accesses;
        :class:`VRLAccessPolicy` flips ``resets_on_access``.
        """
        return TimelineSpec(
            cycle_len=self.mprsf.values + 1,
            phase=self.rcount.values.copy(),
            resets_on_access=False,
            kind_latencies=self.kind_latencies,
            commit=self.rcount.load,
        )

    def reset(self) -> None:
        self.rcount.reset_all()


class VRLAccessPolicy(VRLPolicy):
    """VRL-Access: row activations reset the partial-refresh budget.

    "A DRAM activation caused by a read or write access fully restores
    the charge in the DRAM row … on a read or write access to a row,
    the memory controller resets the value of rcount to 0."
    """

    name = "vrl-access"
    needs_trace = True

    def _on_access_batch(self, rows: np.ndarray) -> None:
        self.rcount.reset_rows(rows)

    def timeline_spec(self) -> TimelineSpec:
        """VRL cadence with access-driven restarts (``rcount`` → 0)."""
        return replace(super().timeline_spec(), resets_on_access=True)


def build_policy(
    name: str,
    tech: TechnologyParams,
    profile: RetentionProfile,
    binning: BinningResult,
    nbits: int = 2,
) -> RefreshPolicy:
    """Factory wiring a policy from the model and a retention profile.

    A thin dispatch over the mechanism registry
    (:data:`repro.controller.registry.MECHANISMS`): any registered
    mechanism name builds here, and the result is bit-identical to
    calling the registered builder (or the policy constructor)
    directly — invariant 15.

    Args:
        name: a registered mechanism name (``"fixed"``, ``"raidr"``,
            ``"vrl"``, ``"vrl-access"``, ``"fgr-2x"``, ``"darp"``, ...);
            unknown names raise a ``ValueError`` listing the registry.
        tech: technology parameters (latencies come from the analytical
            model).
        profile: the bank's retention profile.
        binning: RAIDR bin assignment for the same profile.
        nbits: counter width for the VRL variants.
    """
    from .registry import MECHANISMS

    return MECHANISMS.build(name, tech, profile, binning, nbits=nbits)
