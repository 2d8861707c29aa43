"""Outside-in tracing of the ``repro`` layer boundaries.

The traced run of the end-to-end benchmark wraps the public method or
function at each layer boundary from here (nothing under ``src/`` is
edited), records one ``(start, end, thread, boundary, counts)`` span
per call on :func:`time.perf_counter`, and puts every original
attribute back afterwards.  Hot leaves are counted only: reading the
clock around 848k scalar ``restored_fraction`` calls would cost more
than the calls.

Self time comes from interval containment: a span's parent is the
innermost span that encloses it, in any thread.  That is valid because
the sweeps run with ``--jobs 1``, so the ``LocalService`` dispatcher
thread computes only while the calling thread blocks in
``LocalClient.sweep``; two spans that partially overlap would break
that assumption, so :func:`self_times` raises on them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

#: Every verb the workloads run, for the ``experiments.<verb>.wall_s``
#: metrics (a verb a workload does not run reports 0).
VERBS = (
    "fig1a", "fig1b", "fig3", "sec31", "fig4", "fig5", "table1", "table2",
    "ablation-nbits", "ablation-guard", "ablation-geometry", "ablation-bins",
    "sensitivity", "rank", "validate", "baselines", "mechanisms",
    "temperature", "calibrate",
)


class PartialOverlap(ValueError):
    """Two spans overlap without one containing the other."""


def _sweep_counts(report) -> dict:
    return {"ops": len(report.outcomes), "failed": len(report.failures)}


def _cache_counts(payload) -> dict:
    return {"hits": int(payload is not None)}


def _trace_counts(trace) -> dict:
    return {"requests": len(trace)}


def _timeline_counts(stats) -> dict:
    return {"row_intervals": stats.full_refreshes + stats.partial_refreshes}


def _bank_counts(result) -> dict:
    return {"events": result.requests.n_requests + result.refresh.total_refreshes}


def _rank_counts(result) -> dict:
    refreshes = sum(s.total_refreshes for s in result.per_bank_refresh)
    return {"events": result.requests.n_requests + refreshes}


def _circuit_counts(result) -> dict:
    counts = {"lanes": getattr(result, "n_lanes", 1)}
    stats = result.stats
    if stats is not None:
        counts.update(
            newton_iterations=stats.newton_iterations,
            factorizations=stats.factorizations,
            accepted_steps=stats.accepted_steps,
            rescues=stats.rescues,
        )
    return counts


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point of a layer.

    Attributes:
        layer: the ``repro`` subpackage the entry point belongs to.
        module: where the attribute is looked up at call time.
        owner: class holding the method, or ``None`` for a module-level
            function (patched at its lookup site).
        attr: the method or function name.
        timed: record a span; ``False`` counts calls only.
        counter: reads counts off the return value.  Spans nested in a
            span with the same counter are not counted again (a
            batched circuit call that falls back to per-lane scalar
            calls counts its lanes once).
    """

    layer: str
    module: str
    owner: Optional[str]
    attr: str
    timed: bool = True
    counter: Optional[Callable[[Any], dict]] = None

    @property
    def name(self) -> str:
        return ".".join(p for p in (self.layer, self.owner, self.attr) if p)


#: The sweep boundary: untraced runs wrap only this, to count ops.
SWEEP = Boundary("service", "repro.service.client", "LocalClient", "sweep", counter=_sweep_counts)

BOUNDARIES = (
    SWEEP,
    Boundary("runner", "repro.runner.executor", "ExperimentRunner", "run"),
    Boundary("runner", "repro.runner.executor", None, "compute_cell"),
    Boundary("runner", "repro.runner.cache", "ResultCache", "get", counter=_cache_counts),
    Boundary("runner", "repro.runner.cache", "ResultCache", "put"),
    Boundary("retention", "repro.retention.profiler", "RetentionProfiler", "profile"),
    Boundary("retention", "repro.retention.binning", "RefreshBinning", "assign"),
    Boundary("retention", "repro.retention.vrt", "VRTModel", "integrity_report"),
    Boundary("model", "repro.model.presensing", "PreSensingModel", "vsense_coupled", timed=False),
    Boundary("model", "repro.model.trfc", "RefreshLatencyModel", "restored_fraction", timed=False),
    Boundary("mprsf", "repro.mprsf.calculator", "MPRSFCalculator", "mprsf_for_rows"),
    Boundary("mprsf", "repro.mprsf.calculator", "MPRSFCalculator", "mprsf_for_points"),
    Boundary("mprsf", "repro.mprsf.calculator", "MPRSFCalculator", "circuit_restored_fractions"),
    Boundary("mprsf", "repro.mprsf.optimizer", "TauPartialOptimizer", "evaluate"),
    Boundary("mprsf", "repro.mprsf.optimizer", "TauPartialOptimizer", "calibrate"),
    Boundary("controller", "repro.controller.registry", "MechanismRegistry", "build"),
    Boundary("workloads", "repro.workloads.generator", "TraceGenerator", "generate", counter=_trace_counts),
    Boundary("sim", "repro.sim.fastpath", "RefreshOverheadEvaluator", "evaluate"),
    Boundary("sim", "repro.sim.timeline", "FusedTimeline", "evaluate", counter=_timeline_counts),
    Boundary("sim", "repro.sim.engine", "BankSimulator", "run", counter=_bank_counts),
    Boundary("sim", "repro.sim.rank", "RankSimulator", "run", counter=_rank_counts),
    Boundary("circuit", "repro.circuit.solver", "CircuitSession", "simulate", counter=_circuit_counts),
    Boundary("circuit", "repro.circuit.batched", "BatchedCircuitSession", "simulate_batch", counter=_circuit_counts),
)

#: Counts read off return values, reported under these metric names.
COUNT_METRICS = {
    "requests": "workloads.requests",
    "row_intervals": "sim.timeline.row_intervals",
    "events": "sim.engine.events",
    "lanes": "circuit.lanes",
    "newton_iterations": "circuit.newton_iterations",
    "factorizations": "circuit.factorizations",
    "accepted_steps": "circuit.accepted_steps",
    "rescues": "circuit.rescues",
}


def self_times(spans: list[tuple]) -> tuple[list[float], list[Optional[int]]]:
    """Self time and parent index of each span, by interval containment.

    ``spans`` holds ``(start, end, ...)`` tuples in any order.  A span's
    parent is the innermost span enclosing it; its self time is its
    duration minus the durations of its direct children.

    Raises:
        PartialOverlap: when a span starts inside another and ends
            after it.
    """
    order = sorted(range(len(spans)), key=lambda i: (spans[i][0], -spans[i][1]))
    own = [s[1] - s[0] for s in spans]
    parent: list[Optional[int]] = [None] * len(spans)
    stack: list[int] = []
    for i in order:
        start, end = spans[i][0], spans[i][1]
        while stack and spans[stack[-1]][1] <= start:
            stack.pop()
        if stack:
            p = stack[-1]
            if end > spans[p][1]:
                raise PartialOverlap(
                    f"span {spans[i][:2]} partially overlaps {spans[p][:2]}"
                )
            parent[i] = p
            own[p] -= end - start
        stack.append(i)
    return own, parent


class Tracer:
    """Installs the boundary wrappers and turns spans into metrics.

    Use as a context manager around the traced calls; leaving it puts
    every original attribute back, also when a call raised.  Root spans
    (one per CLI call) are opened with :meth:`root`.
    """

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = tuple(boundaries)
        #: ``(start, end, thread, boundary index or verb, counts)``
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------- #

    def __enter__(self) -> "Tracer":
        try:
            for index, boundary in enumerate(self.boundaries):
                module = importlib.import_module(boundary.module)
                owner = getattr(module, boundary.owner) if boundary.owner else module
                original = vars(owner)[boundary.attr]
                if not inspect.isfunction(original):
                    raise TypeError(f"{boundary.name} is not a plain function")
                setattr(owner, boundary.attr, self._wrap(index, boundary, original))
                self._saved.append((owner, boundary.attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every attribute this tracer replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, index: int, boundary: Boundary, fn: Callable) -> Callable:
        calls = self.calls
        if not boundary.timed:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[index] += 1
                return fn(*args, **kwargs)

            return counted

        spans = self.spans
        clock = time.perf_counter
        counter = boundary.counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[index] += 1
            start = clock()
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(result)
                return result
            finally:
                spans.append((start, clock(), threading.get_ident(), index, counts))

        return spanned

    @contextlib.contextmanager
    def root(self, verb: str) -> Iterator[None]:
        """Record the enclosed CLI call as one ``experiments`` span."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                (start, time.perf_counter(), threading.get_ident(), verb, None)
            )

    # -- metrics -------------------------------------------------------- #

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        own, parent = self_times(self.spans)
        counts = self._totals(parent)
        out: dict[str, float] = {f"experiments.{v}.wall_s": 0.0 for v in VERBS}
        out["experiments.self_s"] = 0.0
        self_s = Counter()
        for i, (start, end, _, key, _) in enumerate(self.spans):
            if isinstance(key, str):
                out[f"experiments.{key}.wall_s"] += end - start
                out["experiments.self_s"] += own[i]
            else:
                self_s[key] += own[i]
        for index, boundary in enumerate(self.boundaries):
            out[f"{boundary.name}.calls"] = self.calls[index]
            if boundary.timed:
                out[f"{boundary.name}.self_s"] = self_s[index]
        gets = out["runner.ResultCache.get.calls"]
        out["runner.cache_hit_ratio"] = counts["hits"] / gets if gets else 0.0
        for key, name in COUNT_METRICS.items():
            out[name] = counts[key]
        out["sim.timeline.row_intervals_per_s"] = _rate(
            counts["row_intervals"], out["sim.FusedTimeline.evaluate.self_s"]
        )
        out["sim.engine.events_per_s"] = _rate(
            counts["events"],
            out["sim.BankSimulator.run.self_s"] + out["sim.RankSimulator.run.self_s"],
        )
        return out

    def _totals(self, parent: list[Optional[int]]) -> Counter:
        """Counts read off return values (see :class:`Boundary`)."""
        totals: Counter = Counter()
        for i, span in enumerate(self.spans):
            if span[4] and not self._nested_in_same_counter(i, parent):
                totals.update(span[4])
        return totals

    def _nested_in_same_counter(self, i: int, parent: list[Optional[int]]) -> bool:
        counter = self.boundaries[self.spans[i][3]].counter
        p = parent[i]
        while p is not None:
            key = self.spans[p][3]
            if not isinstance(key, str) and self.boundaries[key].counter is counter:
                return True
            p = parent[p]
        return False


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Each layer's self time as a share of the traced wall time, largest
    first.  The shares add up to 1: every span lies inside a CLI call."""
    wall = sum(
        v for k, v in metrics.items() if k.startswith("experiments.") and k.endswith(".wall_s")
    )
    shares: Counter = Counter()
    for key, value in metrics.items():
        if key.endswith(".self_s") and value > 0:
            shares[key.split(".")[0]] += value / wall
    return dict(shares.most_common())


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order
    (``trace.overhead_frac`` is added by the parent)."""
    return list(Tracer().metrics()) + ["trace.overhead_frac"]
