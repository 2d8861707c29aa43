"""Exact vectorized evaluator of refresh overhead for full-length traces.

The cycle-level engine walks every demand request; for the Fig. 4 sweep
(a dozen benchmarks x several policies x seconds of simulated time) that
is needlessly slow, because refresh accounting only depends on *which
rows were accessed in which refresh interval*, never on how many times
or exactly when within the interval (an extra ``on_access`` reset of an
already-reset counter is a no-op).

:class:`RefreshOverheadEvaluator` prices every policy from its
:class:`~repro.controller.refresh.TimelineSpec` on the fused timeline
(:class:`~repro.sim.timeline.FusedTimeline`): all deadline crossings
of the horizon in one batched kernel call, with zero Python-level
loops, and a failure there raises to the caller.  The statistics are
bit-identical to the engine's and to a round-by-round walk of the
policy's kernel hooks, which ``tests/reference_refresh.py`` keeps as
the oracle; the differential harness
(``tests/test_differential_engine_fastpath.py``) asserts all three
against :class:`~repro.sim.engine.BankSimulator`.
"""

from __future__ import annotations

from typing import Optional, Union

from ..controller.refresh import RefreshPolicy
from .stats import RefreshStats
from .timeline import FusedTimeline
from .timing import DRAMTiming
from .trace import MemoryTrace, StreamedTrace

__all__ = ["RefreshOverheadEvaluator"]


class RefreshOverheadEvaluator:
    """Bank-vectorized refresh-overhead evaluation via the fused timeline.

    Args:
        policy: refresh policy to price.
        timing: command timings (sets the tREFI-staggered deadlines and
            the cycle clock).
    """

    def __init__(self, policy: RefreshPolicy, timing: DRAMTiming):
        self.policy = policy
        self.timing = timing
        self._timeline: Optional[FusedTimeline] = None

    @property
    def timeline(self) -> FusedTimeline:
        """The compiled fused timeline.

        Built lazily on first use and reused across evaluations, so the
        schedule compilation is paid once per evaluator.
        """
        if self._timeline is None:
            self._timeline = FusedTimeline(self.policy, self.timing)
        return self._timeline

    @property
    def reads_trace(self) -> bool:
        """Can a demand trace change what :meth:`evaluate` returns?

        Only access-coupled policies (``timeline_spec().resets_on_access``)
        read the trace; for every other policy ``evaluate(d, trace)``
        equals ``evaluate(d, None)``, so callers may skip building the
        trace.
        """
        return self.policy.timeline_spec().resets_on_access

    def evaluate(
        self,
        duration_cycles: int,
        trace: Optional[Union[MemoryTrace, StreamedTrace]] = None,
    ) -> RefreshStats:
        """Refresh statistics over ``duration_cycles`` of simulated time.

        Args:
            duration_cycles: simulation horizon; refreshes due at or
                after it are not issued (same convention as the engine).
            trace: demand accesses (only their (row, cycle) structure is
                used), whole or streamed block by block.
        """
        return self.timeline.evaluate(duration_cycles, trace)
