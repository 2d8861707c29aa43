"""Sweep-cell definitions: picklable recipes the executor can fan out.

A :class:`Cell` is one independent unit of an experiment sweep — e.g.
one ``(benchmark, policy)`` pair of the Fig. 4 grid — described entirely
by JSON primitives so it can (a) cross a process boundary and (b) be
hashed into a content address for the on-disk cache.  Each cell kind is
declared once, as a :class:`CellKind` in :data:`CELL_KINDS`: the fields
it consumes (and how :meth:`Cell.of` canonicalizes them), the ones it
requires, its default label, its payload-layout version, and the
compute function that rebuilds the simulation objects from the
primitives and returns a JSON-serializable payload.

Heavy intermediate objects (retention profiles, binnings, traces) are
memoized **per process** with keyed LRU caches, so a worker computing
several cells of the same sweep builds each profile once and shares it
across policies, rather than regenerating it per cell, which is what
the pre-runner serial drivers did.  Refresh pricing is memoized too
(see :func:`_price`): each built policy and each priced horizon is
kept, so cells whose pricing inputs agree (Fig. 4's refresh-only
RAIDR/VRL columns across benchmarks, the baseline comparison's RAIDR,
VRL and VRL-Access after Fig. 4) compute once per process.  Workload
traces are built only for cells whose pricing reads them.  The fused
timeline reads a streamed trace built for its pricing alone (cycles
held, rows produced per block); the engine cells share a memo that
keeps one whole trace at a time (see :func:`_trace`).
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import namedtuple
from dataclasses import dataclass, field, fields
from functools import lru_cache, update_wrapper
from typing import Any, Callable, Mapping, Optional, Union

import numpy as np

from ..controller import MECHANISMS, build_policy
from ..controller.registry import MechanismInfo
from ..mprsf import TauPartialOptimizer
from ..mprsf.optimizer import check_nbits
from ..retention import RefreshBinning, RetentionProfiler
from ..retention.temperature import TemperatureModel
from ..sim import (
    BankSimulator,
    DRAMTiming,
    FusedTimeline,
    RankSimulator,
    RefreshOverheadEvaluator,
)
from ..sim.stats import RefreshStats
from ..technology import BankGeometry, TechnologyParams
from ..units import MS, to_cycles
from ..workloads import PARSEC_WORKLOADS, TraceGenerator


@dataclass(frozen=True)
class Cell:
    """One independently computable, cacheable unit of a sweep.

    Build one with :meth:`of`, which checks the fields and projects
    them onto the kind's params; the raw constructor takes a params
    dict as is (tests, and cells read back for resume).

    Attributes:
        kind: registered cell kind (key of :data:`CELL_KINDS`).
        params: the complete recomputation recipe, JSON primitives only
            (hashed into the cache key).
        label: short human-readable tag for manifests and logs.
    """

    kind: str
    params: Mapping[str, Any] = field(hash=False)
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ValueError(
                f"unknown cell kind {self.kind!r}; registered: {sorted(CELL_KINDS)}"
            )

    @classmethod
    def of(
        cls,
        kind: str,
        *,
        tech: Union[TechnologyParams, Mapping[str, Any]],
        rows: int,
        cols: int,
        seed: int = 2018,
        duration_seconds: float = 1.0,
        policy: Optional[str] = None,
        nbits: int = 2,
        benchmark: Optional[str] = None,
        mode: Optional[str] = None,
        n_banks: Optional[int] = None,
        mechanism: Optional[str] = None,
        temperature: Optional[float] = None,
        restore_fraction: Optional[float] = None,
        start_lo: Optional[float] = None,
        start_hi: Optional[float] = None,
        n_points: Optional[int] = None,
        label: str = "",
    ) -> "Cell":
        """A checked cell of ``kind`` from typed fields.

        Only the fields in the kind's :attr:`CellKind.params` reach the
        cell, in that order and canonicalized (``tech`` as a plain
        dict, integer fields as ``int``, float fields as finite
        ``float``), so equal requests share one cache key.

        Args:
            kind: a key of :data:`CELL_KINDS`.
            tech: technology parameters (or their ``asdict()`` mapping).
            rows / cols: bank geometry, each at least 1.
            seed: profiling / trace RNG seed, at least 0.
            duration_seconds: simulated horizon.
            policy: refresh policy (``refresh-overhead``, ``engine-run``).
            nbits: VRL counter width, 1 to
                :data:`~repro.mprsf.optimizer.MAX_NBITS`.
            benchmark: workload name, or ``None`` for refresh-only.
            mode: rank refresh mode (``rank-mode``).
            n_banks: banks per rank (``rank-mode``).
            mechanism: refresh mechanism (``baseline-mechanism``,
                ``mechanism-matrix``).
            temperature: operating point in degC.
            restore_fraction: calibrated restore target, or ``None``
                for the technology default (``calibration-sweep``).
            start_lo / start_hi / n_points: the starting-charge profile
                (``calibration-sweep``).
            label: manifest tag; defaults to the kind's own label.

        Raises:
            ValueError: unknown kind, a required field left ``None``, a
                non-integer (or bool) in an integer field, a non-finite
                float, a negative seed, a bank dimension below one, a
                counter width outside ``1..MAX_NBITS``, or a duration
                that is not positive or whose controller-cycle count does
                not fit in int64; the message names kind and field.
            TypeError: ``tech`` is neither params nor a mapping.
        """
        values = locals()  # every argument by name; the kind picks its own
        spec = CELL_KINDS.get(kind)
        if spec is None:
            raise ValueError(
                f"unknown cell kind {kind!r}; registered: {sorted(CELL_KINDS)}"
            )
        missing = [name for name in spec.required if values[name] is None]
        if missing:
            raise ValueError(f"cell kind {kind!r} requires {', '.join(missing)}")
        params = {}
        for name, canonical in spec.params:
            value = values[name]
            if canonical is not None:
                try:
                    value = canonical(value)
                except ValueError as exc:
                    raise ValueError(
                        f"cell kind {kind!r}, field {name!r}: {exc}"
                    ) from None
            params[name] = value
        if "duration_seconds" in params:
            try:
                check_cycles(params["duration_seconds"], params["tech"])
            except ValueError as exc:
                raise ValueError(
                    f"cell kind {kind!r}, field 'duration_seconds': {exc}"
                ) from None
        return cls(kind, params, label or spec.label(params))


#: The last projected :class:`TechnologyParams` and its projection.  The
#: strong reference keeps the object alive, so its identity stays its own.
_projected: tuple[Optional[TechnologyParams], dict[str, Any]] = (None, {})


def tech_params(tech: TechnologyParams) -> dict[str, Any]:
    """A :class:`TechnologyParams` as a JSON-primitive dict (cache-keyable).

    A shallow field projection: every field is an ``int`` or a
    ``float``, so this equals ``dataclasses.asdict(tech)`` (same keys,
    same order, same cache key) without its recursive deep copy.  The
    params object is frozen, so the last one projected is remembered
    by identity and every call returns a fresh copy; the copies share
    their value objects, which lets :func:`~repro.runner.cache.cache_key`
    reuse one encoding of them.
    """
    global _projected
    held, projection = _projected
    if held is not tech:
        projection = {spec.name: getattr(tech, spec.name) for spec in fields(tech)}
        _projected = (tech, projection)
    return dict(projection)


# --------------------------------------------------------------------- #
# Per-process memoized builders                                          #
# --------------------------------------------------------------------- #


def _freeze(tech_dict: Mapping[str, Any]) -> tuple:
    """Hashable form of a tech dict for the memo keys."""
    return tuple(sorted(tech_dict.items()))


@lru_cache(maxsize=8)
def _tech(frozen: tuple) -> TechnologyParams:
    return TechnologyParams(**dict(frozen))


@lru_cache(maxsize=32)
def _profile_binning(frozen_tech: tuple, rows: int, cols: int, seed: int):
    """(profile, binning) for one bank — shared by every cell of a sweep."""
    profile = RetentionProfiler(seed=seed).profile(BankGeometry(rows, cols))
    binning = RefreshBinning().assign(profile)
    return profile, binning


_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


class _LatestOnly:
    """One-slot memo that lets go of its value before it builds the next.

    ``lru_cache(maxsize=1)`` evicts only once the new value exists, so
    for the length of every build it holds two; this drops the held
    value first, so at most one is alive at any time.  A call with the
    held key is a hit.  :meth:`cache_info` has ``lru_cache``'s shape.
    """

    def __init__(self, build: Callable[..., Any]):
        self._build = build
        self._key: Optional[tuple] = None
        self._value: Any = None
        self.hits = self.misses = 0
        update_wrapper(self, build)

    def __call__(self, *key: Any) -> Any:
        if self._key == key:
            self.hits += 1
            return self._value
        self.misses += 1
        self._key = self._value = None
        self._value = self._build(*key)
        self._key = key
        return self._value

    def cache_info(self) -> _CacheInfo:
        """Hits, misses, slot count and slots in use, as ``lru_cache`` reports."""
        return _CacheInfo(self.hits, self.misses, 1, int(self._key is not None))


@_LatestOnly
def _trace(
    frozen_tech: tuple,
    rows: int,
    cols: int,
    benchmark: str,
    seed: int,
    duration_seconds: float,
):
    """One workload trace; the memo holds only the most recent one.

    The engine cells call this back to back for one workload, since
    their sweeps are benchmark-major, so a single slot still builds each
    trace once per sweep, and since the slot is emptied before a build,
    at most one trace is alive even while the next is generated.
    Refresh pricing streams its trace instead
    (see :func:`_priced_trace`), and cells whose evaluator ignores the
    trace build none (see
    :attr:`~repro.sim.RefreshOverheadEvaluator.reads_trace`).
    """
    return _generator(frozen_tech, rows, cols, benchmark, seed).generate(duration_seconds)


def _generator(frozen_tech: tuple, rows: int, cols: int, benchmark: str,
               seed: int) -> TraceGenerator:
    """A fresh trace generator for one workload on one bank."""
    timing = DRAMTiming.from_technology(_tech(frozen_tech))
    return TraceGenerator(PARSEC_WORKLOADS[benchmark], timing, BankGeometry(rows, cols), seed)


def _benchmark(params: Mapping[str, Any]) -> Optional[str]:
    """A cell's ``benchmark`` param (``None`` = refresh-only), checked by name.

    Checked as the params are read, so an unknown workload fails the
    cell whether or not its pricing goes on to build a trace.
    """
    name = params.get("benchmark")
    if not name:
        return None
    if name not in PARSEC_WORKLOADS:
        raise KeyError(
            f"unknown workload {name!r}; available: {list(PARSEC_WORKLOADS)}"
        )
    return name


def _cell_trace(frozen: tuple, rows: int, cols: int, benchmark: str,
                params: Mapping[str, Any]):
    """The memoized trace of a cell's workload, seed and duration."""
    return _trace(frozen, rows, cols, benchmark, int(params["seed"]),
                  float(params["duration_seconds"]))


def _priced_trace(frozen: tuple, rows: int, cols: int, benchmark: Optional[str],
                  seed: int, duration_seconds: float):
    """The trace a trace-reading evaluator prices: ``None`` without a workload.

    Called on a :func:`_priced_stats` miss only, so a workload's trace
    is built once per priced recipe, not once per cell.  The fused
    timeline reads only (row, cycle) pairs, so it gets a streamed
    trace, built for this pricing alone and dropped with it.
    """
    if not benchmark:
        return None
    return _generator(frozen, rows, cols, benchmark, seed).stream(duration_seconds)


@lru_cache(maxsize=8)
def _pricing_policy(frozen_tech: tuple, rows: int, cols: int, seed: int,
                    mechanism: MechanismInfo, nbits: int):
    """(policy, evaluator) of one registered mechanism on one bank.

    Keyed by the registry entry itself, not its name, so a mechanism
    re-registered with ``replace=True`` is built afresh.  Every
    evaluation resets the policy first, so one instance prices any
    horizon and trace.  The evaluator keeps the compiled timeline only
    of a policy that reads the trace, the one whose recipe is priced
    again per workload (:func:`_priced_stats`).  Fig. 4 and the baseline
    comparison build six policies per bank.
    """
    tech = _tech(frozen_tech)
    profile, binning = _profile_binning(frozen_tech, rows, cols, seed)
    policy = MECHANISMS.build(mechanism.name, tech, profile, binning, nbits=nbits)
    return policy, RefreshOverheadEvaluator(policy, DRAMTiming.from_technology(tech))


@lru_cache(maxsize=64)
def _priced_stats(frozen_tech: tuple, rows: int, cols: int, seed: int,
                  mechanism: MechanismInfo, nbits: int, duration_seconds: float,
                  benchmark: Optional[str]) -> RefreshStats:
    """The refresh statistics of one pricing recipe (shared: do not mutate).

    ``benchmark`` is ``None`` unless the evaluator reads the trace, so
    a refresh-only policy is priced once for every workload: its fused
    timeline (~200 KB) is compiled for that one pricing and let go, not
    kept in the memoized evaluator.  A Fig. 4 sweep and the baseline
    comparison price 18 recipes.
    """
    _, evaluator = _pricing_policy(frozen_tech, rows, cols, seed, mechanism, nbits)
    horizon = evaluator.timing.cycles(duration_seconds)
    if not evaluator.reads_trace:
        return FusedTimeline(evaluator.policy, evaluator.timing).evaluate(horizon)
    trace = _priced_trace(frozen_tech, rows, cols, benchmark, seed, duration_seconds)
    return evaluator.evaluate(horizon, trace)


def _price(params: Mapping[str, Any], mechanism: str, nbits: int):
    """A cell's refresh policy and its statistics, each built once per process.

    Reads ``tech``, ``rows``, ``cols``, ``benchmark``, ``seed`` and
    ``duration_seconds`` from ``params``; ``mechanism`` is a registered
    name.  Failures propagate and are never memoized, so a retried cell
    computes again.

    Returns:
        ``(policy, stats)``: the memoized policy (its end state is that
        of whichever pricing ran last) and the memoized
        :class:`~repro.sim.stats.RefreshStats`.
    """
    benchmark = _benchmark(params)
    frozen = _freeze(params["tech"])
    rows, cols, seed = int(params["rows"]), int(params["cols"]), int(params["seed"])
    entry = MECHANISMS.get(mechanism)
    policy, evaluator = _pricing_policy(frozen, rows, cols, seed, entry, nbits)
    stats = _priced_stats(
        frozen, rows, cols, seed, entry, nbits, float(params["duration_seconds"]),
        benchmark if evaluator.reads_trace else None,
    )
    return policy, stats


# --------------------------------------------------------------------- #
# Cell compute functions                                                 #
# --------------------------------------------------------------------- #


def _refresh_overhead_cell(params: Mapping[str, Any]) -> dict:
    """Fastpath refresh statistics of one (policy, workload) pair.

    Params: ``tech``, ``rows``, ``cols``, ``policy``, ``nbits``,
    ``benchmark`` (``None`` = refresh-only), ``seed``,
    ``duration_seconds``.
    """
    _, stats = _price(params, params["policy"], int(params["nbits"]))
    return {
        "full_refreshes": stats.full_refreshes,
        "partial_refreshes": stats.partial_refreshes,
        "refresh_cycles": stats.refresh_cycles,
        "duration_cycles": stats.duration_cycles,
    }


def _engine_run_cell(params: Mapping[str, Any]) -> dict:
    """Cycle-level engine run of one (policy, workload) pair.

    Same params as ``refresh-overhead``; returns both refresh and
    demand-request statistics.
    """
    benchmark = _benchmark(params)
    frozen = _freeze(params["tech"])
    tech = _tech(frozen)
    timing = DRAMTiming.from_technology(tech)
    rows, cols = int(params["rows"]), int(params["cols"])
    profile, binning = _profile_binning(frozen, rows, cols, int(params["seed"]))
    policy = build_policy(
        params["policy"], tech, profile, binning, nbits=int(params["nbits"])
    )
    duration_cycles = timing.cycles(float(params["duration_seconds"]))
    trace = _cell_trace(frozen, rows, cols, benchmark, params) if benchmark else None
    result = BankSimulator(policy, timing, BankGeometry(rows, cols)).run(
        trace=trace, duration_cycles=duration_cycles
    )
    return {
        "refresh": {
            "full_refreshes": result.refresh.full_refreshes,
            "partial_refreshes": result.refresh.partial_refreshes,
            "refresh_cycles": result.refresh.refresh_cycles,
            "duration_cycles": result.refresh.duration_cycles,
        },
        "requests": {
            "n_requests": result.requests.n_requests,
            "n_reads": result.requests.n_reads,
            "n_writes": result.requests.n_writes,
            "row_hits": result.requests.row_hits,
            "total_latency_cycles": result.requests.total_latency_cycles,
            "max_latency_cycles": result.requests.max_latency_cycles,
            "refresh_stall_cycles": result.requests.refresh_stall_cycles,
        },
    }


def _rank_mode_cell(params: Mapping[str, Any]) -> dict:
    """One refresh mode of the rank-level study on an n-bank rank.

    Params: ``tech``, ``rows``, ``cols``, ``n_banks``, ``mode`` (one of
    ``all-bank``/``fixed``/``raidr``/``vrl``/``vrl-access``), ``seed``,
    ``duration_seconds``.
    """
    frozen = _freeze(params["tech"])
    tech = _tech(frozen)
    timing = DRAMTiming.from_technology(tech)
    rows, cols = int(params["rows"]), int(params["cols"])
    geometry = BankGeometry(rows, cols)
    n_banks = int(params["n_banks"])
    seed = int(params["seed"])
    mode = params["mode"]
    policy_name = "fixed" if mode == "all-bank" else mode
    policies = []
    for bank in range(n_banks):
        profile, binning = _profile_binning(frozen, rows, cols, seed + bank)
        policies.append(build_policy(policy_name, tech, profile, binning))
    simulator = RankSimulator(
        policies, timing, geometry, all_bank_refresh=(mode == "all-bank")
    )
    result = simulator.run(
        duration_cycles=timing.cycles(float(params["duration_seconds"]))
    )
    return {
        "total_refresh_cycles": result.total_refresh_cycles,
        "refresh_overhead": result.refresh_overhead,
        "blocked_fraction": result.blocked_fraction,
    }


def _baseline_mechanism_cell(params: Mapping[str, Any]) -> dict:
    """One refresh mechanism of the baseline comparison.

    Params: ``tech``, ``rows``, ``cols``, ``mechanism`` (a registered
    mechanism, or ``fixed-64ms`` for ``fixed``), ``benchmark``
    (optional), ``seed``, ``duration_seconds``.  Priced at the default
    counter width, so its VRL cells share Fig. 4's pricing.
    """
    mechanism = params["mechanism"]
    policy, stats = _price(params, "fixed" if mechanism == "fixed-64ms" else mechanism, 2)
    # FGR slices each operation down to tau_op; the others run tau_full.
    longest_op = getattr(policy, "tau_op", policy.tau_full)
    return {
        "name": policy.name,
        "refresh_cycles": stats.refresh_cycles,
        "longest_op_cycles": int(longest_op),
    }


def _temperature_point_cell(params: Mapping[str, Any]) -> dict:
    """One operating-temperature point of the temperature study.

    Params: ``tech``, ``rows``, ``cols``, ``temperature`` (degC),
    ``seed``.
    """
    frozen = _freeze(params["tech"])
    tech = _tech(frozen)
    rows, cols = int(params["rows"]), int(params["cols"])
    geometry = BankGeometry(rows, cols)
    base_profile, _ = _profile_binning(frozen, rows, cols, int(params["seed"]))
    model = TemperatureModel()
    temperature = float(params["temperature"])
    profile = model.scale_profile(base_profile, temperature)
    binning = RefreshBinning().assign(profile)
    optimizer = TauPartialOptimizer(tech, geometry)
    evaluation = optimizer.evaluate(profile, binning, tech.partial_restore_fraction)
    raidr = optimizer.raidr_overhead(
        binning.row_period, optimizer.model.full_refresh().total_cycles
    )
    return {
        "retention_factor": model.retention_factor(temperature),
        "weak_rows": int((profile.row_retention < 128 * MS).sum()),
        "raidr_cycles_per_second": raidr,
        "overhead_vs_raidr": evaluation.overhead_vs_raidr,
        "mean_mprsf": evaluation.mean_mprsf,
    }


def _mechanism_matrix_cell(params: Mapping[str, Any]) -> dict:
    """One (mechanism, workload, temperature, capacity) point of the matrix.

    Cycle-level engine run of a registry-built mechanism on a
    temperature-scaled retention profile.  Params: ``tech``, ``rows``,
    ``cols``, ``mechanism`` (a :data:`~repro.controller.MECHANISMS`
    name), ``nbits``, ``benchmark`` (``None`` = refresh-only),
    ``temperature`` (degC), ``seed``, ``duration_seconds``.
    """
    benchmark = _benchmark(params)
    frozen = _freeze(params["tech"])
    tech = _tech(frozen)
    timing = DRAMTiming.from_technology(tech)
    rows, cols = int(params["rows"]), int(params["cols"])
    base_profile, _ = _profile_binning(frozen, rows, cols, int(params["seed"]))
    temperature = float(params["temperature"])
    profile = TemperatureModel().scale_profile(base_profile, temperature)
    binning = RefreshBinning().assign(profile)
    mechanism = params["mechanism"]
    policy = MECHANISMS.build(
        mechanism, tech, profile, binning, nbits=int(params["nbits"])
    )
    info = MECHANISMS.get(mechanism)
    duration_cycles = timing.cycles(float(params["duration_seconds"]))
    trace = _cell_trace(frozen, rows, cols, benchmark, params) if benchmark else None
    result = BankSimulator(policy, timing, BankGeometry(rows, cols)).run(
        trace=trace, duration_cycles=duration_cycles
    )
    payload = {
        "name": policy.name,
        "flags": {
            "needs_trace": info.needs_trace,
            "reorders_refresh": info.reorders_refresh,
            "modulates_access": info.modulates_access,
        },
        "refresh": {
            "full_refreshes": result.refresh.full_refreshes,
            "partial_refreshes": result.refresh.partial_refreshes,
            "refresh_cycles": result.refresh.refresh_cycles,
            "duration_cycles": result.refresh.duration_cycles,
        },
        "requests": {
            "n_requests": result.requests.n_requests,
            "row_hits": result.requests.row_hits,
            "total_latency_cycles": result.requests.total_latency_cycles,
            "refresh_stall_cycles": result.requests.refresh_stall_cycles,
        },
    }
    # Mechanism-specific diagnostics ride along when the policy has them
    # (ChargeCache hit tracking, AVATAR profiling outcomes).
    if hasattr(policy, "hit_rate"):
        payload["cache"] = {
            "lookups": policy.lookups,
            "hits": policy.hits,
            "hit_rate": policy.hit_rate,
        }
    if hasattr(policy, "upgraded_rows"):
        payload["profiling"] = {
            "upgraded_rows": policy.upgraded_rows,
            "pinned_rows": policy.pinned_rows,
            "windows": policy.profiling_windows,
        }
    return payload


@lru_cache(maxsize=8)
def _optimizer(frozen_tech: tuple, rows: int, cols: int) -> TauPartialOptimizer:
    """One optimizer (and its compiled circuit sessions) per bank.

    The calibration cell's cost is dominated by the refresh netlist's
    compiled MNA structure; caching the optimizer keeps it warm across
    every calibration cell a worker computes.
    """
    return TauPartialOptimizer(_tech(frozen_tech), BankGeometry(rows, cols))


def _calibration_sweep_cell(params: Mapping[str, Any]) -> dict:
    """Batched analytic-vs-circuit calibration over a charge profile.

    Params: ``tech``, ``rows``, ``cols``, ``restore_fraction`` (``None``
    = technology default), ``start_lo``, ``start_hi``, ``n_points``.
    All points run as lanes of one batched circuit transient.
    """
    frozen = _freeze(params["tech"])
    rows, cols = int(params["rows"]), int(params["cols"])
    starts = np.linspace(
        float(params["start_lo"]), float(params["start_hi"]), int(params["n_points"])
    )
    restore = params.get("restore_fraction")
    optimizer = _optimizer(frozen, rows, cols)
    result = optimizer.calibrate(
        starts, None if restore is None else float(restore)
    )
    return {
        "restore_fraction": result.restore_fraction,
        "tau_partial_cycles": result.tau_partial_cycles,
        "start_fractions": result.start_fractions.tolist(),
        "analytic_fractions": result.analytic_fractions.tolist(),
        "circuit_fractions": result.circuit_fractions.tolist(),
        "max_abs_error": result.max_abs_error,
    }


# --------------------------------------------------------------------- #
# Cell kinds                                                             #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CellKind:
    """One cell kind, declared once: its fields, label, compute and layout.

    Attributes:
        name: the kind's name (part of every cache key of its cells).
        params: ``(field, canonicalizer)`` pairs, in key order: the
            :meth:`Cell.of` fields the kind consumes and how each is
            canonicalized (``None`` = as given).
        required: fields :meth:`Cell.of` must not get as ``None``.
        label: the default manifest label, from the canonical params.
        fn: the compute function, params to JSON-serializable payload.
        schema_version: the payload-layout version, folded into every
            cache key of the kind.  Bump it whenever ``fn`` changes the
            shape or meaning of its payload (new fields, renamed
            counters, changed units), so stale cached payloads of the
            old layout are never served.
    """

    name: str
    params: tuple[tuple[str, Optional[Callable[[Any], Any]]], ...]
    required: tuple[str, ...]
    label: Callable[[Mapping[str, Any]], str]
    fn: Callable[[Mapping[str, Any]], dict]
    schema_version: int = 1


def _tech_dict(tech: Any) -> dict[str, Any]:
    """``tech`` as a JSON-primitive dict: params projected, a mapping copied."""
    if isinstance(tech, TechnologyParams):
        return tech_params(tech)
    if isinstance(tech, Mapping):
        return dict(tech)
    raise TypeError(
        "tech must be a TechnologyParams or its asdict() mapping, "
        f"not {type(tech).__name__}"
    )


def _integer(value: Any) -> int:
    """An ``int`` (numpy ints too); floats and bools would alias other keys."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"expected an integer, got {value!r}")


def _extent(value: Any) -> int:
    """A bank dimension, a rank's bank count or a calibration profile's
    point count: a positive integer."""
    number = _integer(value)
    if number >= 1:
        return number
    raise ValueError(f"expected a positive integer, got {number}")


def check_seed(seed: int) -> int:
    """Reject an RNG seed numpy cannot take (it seeds from integers >= 0).

    :meth:`Cell.of` and the CLI's ``--seed`` check both call this.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _seed(value: Any) -> int:
    return check_seed(_integer(value))


def _nbits(value: Any) -> int:
    """A counter width the policies can hold (:func:`check_nbits`)."""
    return check_nbits(_integer(value))


def _finite(value: Any) -> float:
    """A finite ``float``; NaN and infinities have no JSON encoding."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        number = float(value)
        if math.isfinite(number):
            return number
    raise ValueError(f"expected a finite number, got {value!r}")


def _optional_finite(value: Any) -> Optional[float]:
    return None if value is None else _finite(value)


def _duration(value: Any) -> float:
    """A finite duration above zero, in seconds."""
    number = _finite(value)
    if number > 0.0:
        return number
    raise ValueError(f"expected a positive duration, got {value!r}")


#: The largest cycle count the timeline and the engine hold (int64).
_MAX_CYCLES = 2**63 - 1


def check_cycles(seconds: float, tech: Mapping[str, Any]) -> None:
    """Reject a duration whose controller-cycle count overflows int64.

    The count is the one the compute functions price,
    ``DRAMTiming.from_technology(tech).cycles(seconds)``; ``tech`` is a
    :func:`tech_params` dict.  :meth:`Cell.of` and the CLI's
    ``--duration`` check both call this.
    """
    tck = tech.get("tck_ctrl", TechnologyParams.tck_ctrl)
    if not tck > 0:
        return  # a clock the compute functions reject themselves
    ratio = seconds / tck
    if not math.isfinite(ratio) or to_cycles(seconds, tck) > _MAX_CYCLES:
        raise ValueError(
            f"{seconds!r} s is {ratio:.3e} controller cycles, more than int64 holds"
        )


def _workload(params: Mapping[str, Any]) -> str:
    return params["benchmark"] or "refresh-only"


def _policy_label(params: Mapping[str, Any]) -> str:
    return f"{params['policy']}/{_workload(params)}"


def _calibration_label(params: Mapping[str, Any]) -> str:
    target = params["restore_fraction"]
    target = "default" if target is None else f"{target:.2f}"
    return f"calibrate/{target}x{params['n_points']}"


#: The bank every kind is computed on; each kind's params start with it.
_BANK = (("tech", _tech_dict), ("rows", _extent), ("cols", _extent))

#: ``refresh-overhead`` and ``engine-run`` price one request two ways.
_POLICY_PARAMS = (
    *_BANK, ("policy", None), ("nbits", _nbits), ("benchmark", None),
    ("seed", _seed), ("duration_seconds", _duration),
)

#: Every cell kind by name: the one table the cells, their keys and
#: the compute path read.
CELL_KINDS: dict[str, CellKind] = {
    spec.name: spec
    for spec in (
        CellKind(
            "refresh-overhead", _POLICY_PARAMS, ("policy",), _policy_label,
            _refresh_overhead_cell,
        ),
        CellKind(
            "engine-run", _POLICY_PARAMS, ("policy",), _policy_label,
            _engine_run_cell,
        ),
        CellKind(
            "rank-mode",
            (*_BANK, ("n_banks", _extent), ("mode", None), ("seed", _seed),
             ("duration_seconds", _duration)),
            ("n_banks", "mode"),
            lambda p: f"rank/{p['mode']}",
            _rank_mode_cell,
        ),
        CellKind(
            "baseline-mechanism",
            (*_BANK, ("mechanism", None), ("benchmark", None), ("seed", _seed),
             ("duration_seconds", _duration)),
            ("mechanism",),
            lambda p: f"baseline/{p['mechanism']}",
            _baseline_mechanism_cell,
        ),
        CellKind(
            "mechanism-matrix",
            (*_BANK, ("mechanism", None), ("nbits", _nbits), ("benchmark", None),
             ("temperature", _finite), ("seed", _seed),
             ("duration_seconds", _duration)),
            ("mechanism", "temperature"),
            lambda p: (
                f"matrix/{p['mechanism']}/{_workload(p)}"
                f"/{p['temperature']:.0f}C/{p['rows']}r"
            ),
            _mechanism_matrix_cell,
        ),
        CellKind(
            "temperature-point",
            (*_BANK, ("temperature", _finite), ("seed", _seed)),
            ("temperature",),
            lambda p: f"temp/{p['temperature']:.0f}C",
            _temperature_point_cell,
        ),
        CellKind(
            "calibration-sweep",
            (*_BANK, ("restore_fraction", _optional_finite),
             ("start_lo", _finite), ("start_hi", _finite), ("n_points", _extent)),
            ("start_lo", "start_hi", "n_points"),
            _calibration_label,
            _calibration_sweep_cell,
        ),
    )
}


def compute_cell(kind: str, params: Mapping[str, Any]) -> dict:
    """Run one cell's compute function and return its payload."""
    try:
        spec = CELL_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown cell kind {kind!r}; registered: {sorted(CELL_KINDS)}"
        ) from None
    return spec.fn(params)
