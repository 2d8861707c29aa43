"""Sweep-cell definitions: picklable recipes the executor can fan out.

A :class:`Cell` is one independent unit of an experiment sweep — e.g.
one ``(benchmark, policy)`` pair of the Fig. 4 grid — described entirely
by JSON primitives so it can (a) cross a process boundary and (b) be
hashed into a content address for the on-disk cache.  Each cell kind has
a compute function registered in :data:`CELL_KINDS` that rebuilds the
simulation objects from the primitives and returns a JSON-serializable
payload.

Heavy intermediate objects (retention profiles, binnings, traces) are
memoized **per process** with keyed LRU caches, so a worker computing
several cells of the same sweep builds each profile once and shares it
across policies, rather than regenerating it per cell, which is what
the pre-runner serial drivers did.  Workload traces are built only for
cells whose pricing reads them, and the trace memo keeps one trace at
a time (see :func:`_trace`).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, fields
from functools import lru_cache, update_wrapper
from typing import Any, Callable, Mapping, Optional

import numpy as np

from ..controller import FGRPolicy, build_policy
from ..mprsf import TauPartialOptimizer
from ..retention import RefreshBinning, RetentionProfiler
from ..retention.temperature import TemperatureModel
from ..sim import (
    BankSimulator,
    DRAMTiming,
    RankSimulator,
    RefreshOverheadEvaluator,
)
from ..technology import BankGeometry, TechnologyParams
from ..units import MS
from ..workloads import PARSEC_WORKLOADS, TraceGenerator
from .cache import register_result_schema


@dataclass(frozen=True)
class Cell:
    """One independently computable, cacheable unit of a sweep.

    Attributes:
        kind: registered compute-function name (key of
            :data:`CELL_KINDS`).
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


def tech_params(tech: TechnologyParams) -> dict[str, Any]:
    """A :class:`TechnologyParams` as a JSON-primitive dict (cache-keyable).

    A shallow field projection: every field is an ``int`` or a
    ``float``, so this equals ``dataclasses.asdict(tech)`` (same keys,
    same order, same cache key) without its recursive deep copy.
    """
    return {spec.name: getattr(tech, spec.name) for spec in fields(tech)}


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

    Cells whose pricing reads the trace call this back to back for one
    workload (the engine sweeps are benchmark-major, and in Fig. 4 only
    the VRL-Access column reads a trace), so a single slot still builds
    each trace once per sweep, and since the slot is emptied before a
    build, at most one trace is alive even while the next is generated.
    Cells whose evaluator ignores the trace never call it (see
    :attr:`~repro.sim.RefreshOverheadEvaluator.reads_trace`).
    """
    tech = _tech(frozen_tech)
    timing = DRAMTiming.from_technology(tech)
    spec = PARSEC_WORKLOADS[benchmark]
    return TraceGenerator(spec, timing, BankGeometry(rows, cols), seed).generate(
        duration_seconds
    )


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


def shared_build_cache_info() -> dict[str, Any]:
    """Hit/miss counters of the per-process builders (for tests/diagnostics)."""
    return {
        "trace": _trace.cache_info()._asdict(),
        "profile_binning": _profile_binning.cache_info()._asdict(),
    }


# --------------------------------------------------------------------- #
# Cell compute functions                                                 #
# --------------------------------------------------------------------- #


def _refresh_overhead_cell(params: Mapping[str, Any]) -> dict:
    """Fastpath refresh statistics of one (policy, workload) pair.

    Params: ``tech``, ``rows``, ``cols``, ``policy``, ``nbits``,
    ``benchmark`` (``None`` = refresh-only), ``seed``,
    ``duration_seconds``.
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
    evaluator = RefreshOverheadEvaluator(policy, timing)
    trace = (
        _cell_trace(frozen, rows, cols, benchmark, params)
        if benchmark and evaluator.reads_trace
        else None
    )
    stats = evaluator.evaluate(duration_cycles, trace)
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

    Params: ``tech``, ``rows``, ``cols``, ``mechanism`` (policy name or
    ``fgr-2x``/``fgr-4x``), ``benchmark`` (optional), ``seed``,
    ``duration_seconds``.
    """
    benchmark = _benchmark(params)
    frozen = _freeze(params["tech"])
    tech = _tech(frozen)
    timing = DRAMTiming.from_technology(tech)
    rows, cols = int(params["rows"]), int(params["cols"])
    profile, binning = _profile_binning(frozen, rows, cols, int(params["seed"]))
    mechanism = params["mechanism"]
    fixed = build_policy("fixed", tech, profile, binning)
    if mechanism.startswith("fgr-"):
        mode = int(mechanism[len("fgr-"):-1])
        policy = FGRPolicy(rows, fixed.tau_full, mode=mode)
        longest_op = policy.tau_op
    else:
        name = "fixed" if mechanism == "fixed-64ms" else mechanism
        policy = fixed if name == "fixed" else build_policy(name, tech, profile, binning)
        longest_op = getattr(policy, "tau_full", fixed.tau_full)
    duration_cycles = timing.cycles(float(params["duration_seconds"]))
    evaluator = RefreshOverheadEvaluator(policy, timing)
    trace = (
        _cell_trace(frozen, rows, cols, benchmark, params)
        if benchmark and evaluator.reads_trace
        else None
    )
    stats = evaluator.evaluate(duration_cycles, trace)
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
    from ..controller import MECHANISMS

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
    n_points = int(params["n_points"])
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    starts = np.linspace(
        float(params["start_lo"]), float(params["start_hi"]), n_points
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


#: Registry of cell kinds to their compute functions.
CELL_KINDS: dict[str, Callable[[Mapping[str, Any]], dict]] = {
    "refresh-overhead": _refresh_overhead_cell,
    "engine-run": _engine_run_cell,
    "rank-mode": _rank_mode_cell,
    "baseline-mechanism": _baseline_mechanism_cell,
    "mechanism-matrix": _mechanism_matrix_cell,
    "temperature-point": _temperature_point_cell,
    "calibration-sweep": _calibration_sweep_cell,
}

#: Payload-layout version per cell kind.  Bump a kind's entry whenever
#: its compute function changes the *shape or meaning* of the returned
#: payload (new fields, renamed counters, changed units) — the version
#: is folded into every cache key for that kind, so stale cached
#: payloads of the old layout are never served to new readers.
RESULT_SCHEMAS: dict[str, int] = {
    "refresh-overhead": 1,
    "engine-run": 1,
    "rank-mode": 1,
    "baseline-mechanism": 1,
    "mechanism-matrix": 1,
    "temperature-point": 1,
    "calibration-sweep": 1,
}

for _kind, _schema in RESULT_SCHEMAS.items():
    register_result_schema(_kind, _schema)


def compute_cell(kind: str, params: Mapping[str, Any]) -> dict:
    """Run one cell's compute function and return its payload."""
    try:
        fn = CELL_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown cell kind {kind!r}; registered: {sorted(CELL_KINDS)}"
        ) from None
    return fn(params)
