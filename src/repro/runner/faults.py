"""Deterministic fault injection for the experiment runner (chaos mode).

The fault-tolerance machinery of :class:`~repro.runner.executor.\
ExperimentRunner` — per-cell error capture, retries, the watchdog
timeout, broken-pool recovery — is only trustworthy if it can be
exercised on demand.  This module injects faults at precisely chosen
points of a sweep:

* a :class:`FaultSpec` names an *action* (``raise``, ``hang``, ``kill``,
  ``interrupt``, ``nan``, ``diverge``), the 0-based
  sequence number of the **computed** cell it strikes (cache hits don't
  count — they never reach a worker; ``*`` strikes every cell), the
  attempt it fires on (default: only the first, so retries succeed),
  and for ``hang`` an optional sleep duration;
* a :class:`FaultPlan` is an ordered set of specs, parsed from the
  compact ``action@cell[:attempt|*][=seconds]`` grammar, e.g.
  ``"raise@2"`` (third computed cell raises once),
  ``"kill@0,hang@3=120"`` (first cell's worker is SIGKILLed, fourth
  cell sleeps 120 s into the watchdog), ``"raise@1:*"`` (second cell
  raises on *every* attempt, defeating retries).

Arming: pass a plan (or its string form) to ``ExperimentRunner(faults=
...)``, use the CLI's ``--chaos`` flag, or set the ``VRL_DRAM_FAULTS``
environment variable.  The plan is evaluated in the *parent* process
(submission order is deterministic), and the chosen action ships to the
worker alongside the cell — so injection is exact regardless of worker
scheduling, pool size, or cache state.

Actions executed in the worker (:func:`execute_fault`):

``raise``
    raise :class:`InjectedFault` (a ``RuntimeError``);
``hang``
    sleep for ``seconds`` (default 1 h) and then compute normally —
    indistinguishable from a wedged Newton solve until the watchdog
    reaps it;
``kill``
    ``SIGKILL`` the worker's own process — the pool breaks exactly as
    it would under the OOM killer;
``interrupt``
    raise ``KeyboardInterrupt`` — simulates Ctrl-C for checkpoint /
    resume tests (meaningful inline, where it unwinds the runner);
``nan``
    arm :func:`repro.guard.arm_nan_injection` so the cell's next
    guarded boundary crossing raises a structured
    :class:`~repro.guard.NumericalError` — the full guard → diagnostics
    → manifest path, with no layer mocked;
``diverge``
    run a genuinely unrescuable one-node circuit through the real
    transient solver, so the cell fails with an authentic
    :class:`~repro.circuit.rescue.ConvergenceError` carrying a full
    :class:`~repro.circuit.rescue.ConvergenceReport`.

``nan`` mutates process-local chaos state; the runner clears
it after every cell via :func:`clear_fault_state`, and
:func:`ensure_faults_observed` turns a ``nan`` that no boundary ever
consumed into a loud failure instead of silent state leakage.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import List, Optional, Union

from .. import guard

#: Environment variable consulted by the runner when no plan is passed.
FAULTS_ENV = "VRL_DRAM_FAULTS"

#: Actions a fault spec may request.
FAULT_ACTIONS = ("raise", "hang", "kill", "interrupt", "nan", "diverge")

#: Default sleep for ``hang`` faults: long enough that only the
#: watchdog ends it.
DEFAULT_HANG_SECONDS = 3600.0


class InjectedFault(RuntimeError):
    """The exception raised by a ``raise`` fault (and inline ``kill``)."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: *which* cell, *which* attempt, *what* happens.

    Attributes:
        action: one of :data:`FAULT_ACTIONS`.
        cell: 0-based index among the sweep's computed cells, in
            submission order, or ``None`` (the grammar's ``*``) to
            strike every computed cell.
        attempt: attempt number the fault fires on (0 = first try), or
            ``None`` to fire on every attempt.
        seconds: sleep duration for ``hang`` faults.
    """

    action: str
    cell: Optional[int]
    attempt: Optional[int] = 0
    seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {FAULT_ACTIONS}"
            )
        if self.cell is not None and self.cell < 0:
            raise ValueError(f"fault cell index must be >= 0, got {self.cell}")
        if self.seconds <= 0:
            raise ValueError(f"fault seconds must be > 0, got {self.seconds}")

    def fires(self, cell: int, attempt: int) -> bool:
        """Does this spec strike ``cell`` on ``attempt``?"""
        if self.cell is not None and cell != self.cell:
            return False
        return self.attempt is None or attempt == self.attempt


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultSpec` (possibly empty)."""

    specs: tuple = ()

    def for_cell(self, cell: int, attempt: int) -> Optional[FaultSpec]:
        """The first spec striking ``cell`` on ``attempt``, if any."""
        for spec in self.specs:
            if spec.fires(cell, attempt):
                return spec
        return None

    def __bool__(self) -> bool:
        return bool(self.specs)

    def needs_pool(self) -> bool:
        """Does any spec require a worker process to act on (kill/hang)?"""
        return any(spec.action in ("kill", "hang") for spec in self.specs)


def parse_faults(spec: str) -> FaultPlan:
    """Parse the ``action@cell[:attempt|*][=seconds]`` grammar.

    Tokens are comma-separated; whitespace around tokens is ignored;
    the cell may be ``*`` to strike every computed cell.  Raises
    ``ValueError`` with a one-line message on any malformed token
    (unknown action, non-integer indices, bad duration).
    """
    specs: List[FaultSpec] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        body, seconds = token, DEFAULT_HANG_SECONDS
        if "=" in body:
            body, _, duration = body.partition("=")
            try:
                seconds = float(duration)
            except ValueError:
                raise ValueError(
                    f"bad fault duration in {token!r}: {duration!r} is not a number"
                ) from None
        if "@" not in body:
            raise ValueError(
                f"bad fault token {token!r}: expected action@cell[:attempt|*][=seconds]"
            )
        action, _, target = body.partition("@")
        attempt: Optional[int] = 0
        if ":" in target:
            target, _, attempt_text = target.partition(":")
            if attempt_text == "*":
                attempt = None
            else:
                try:
                    attempt = int(attempt_text)
                except ValueError:
                    raise ValueError(
                        f"bad fault attempt in {token!r}: {attempt_text!r}"
                    ) from None
        cell: Optional[int]
        if target == "*":
            cell = None
        else:
            try:
                cell = int(target)
            except ValueError:
                raise ValueError(
                    f"bad fault cell index in {token!r}: {target!r}"
                ) from None
        specs.append(
            FaultSpec(action=action, cell=cell, attempt=attempt, seconds=seconds)
        )
    return FaultPlan(specs=tuple(specs))


def plan_from(
    faults: Union[FaultPlan, str, None], environ: Optional[dict] = None
) -> Optional[FaultPlan]:
    """Resolve a runner's ``faults`` argument to a plan (or ``None``).

    Accepts an explicit :class:`FaultPlan`, a grammar string, or
    ``None`` — in which case :data:`FAULTS_ENV` is consulted so chaos
    mode can be armed without touching call sites.
    """
    if isinstance(faults, FaultPlan):
        return faults if faults else None
    if isinstance(faults, str):
        return parse_faults(faults) or None
    env = os.environ if environ is None else environ
    armed = env.get(FAULTS_ENV, "")
    return parse_faults(armed) or None if armed else None


def _cell_label(spec: FaultSpec) -> str:
    """Human form of the spec's cell filter (``"any"`` for the wildcard)."""
    return "any" if spec.cell is None else str(spec.cell)


def _diverge(spec: FaultSpec) -> None:
    """Run a genuinely unrescuable circuit through the real solver.

    The one-node element's current chatters at 1e7 rad/V (|f'| ~ 1e5 at
    every fixed point), so damped Newton, step halving, *and* both
    rescue ladders all fail — the raised
    :class:`~repro.circuit.rescue.ConvergenceError` carries an
    authentic :class:`~repro.circuit.rescue.ConvergenceReport`, not a
    mock.  Completes in ~10 ms.
    """
    import math

    from ..circuit.netlist import Circuit, Element
    from ..circuit.solver import TransientSolver

    class _ChaosChatter(Element):
        def __init__(self):
            super().__init__("chaos_chatter")

        def nodes(self):
            return ["a"]

        def stamp(self, G, I, x, v_prev, t, dt):
            idx = self._indices[0]
            G[idx, idx] += 1.0
            I[idx] += 10.0 * math.sin(1e7 * x[idx] + 1.0)

    circuit = Circuit(name=f"chaos-diverge-cell-{_cell_label(spec)}")
    circuit.add(_ChaosChatter())
    TransientSolver(circuit).run(t_stop=2e-10, dt=1e-10)
    raise InjectedFault(
        "unreachable: divergent chaos circuit converged"
    )  # pragma: no cover


def execute_fault(spec: FaultSpec) -> None:
    """Act out ``spec`` inside the worker (called before the compute).

    ``hang`` returns after its sleep so the cell completes normally if
    no watchdog reaps it first; ``nan`` arms process
    state and returns so the *cell's own compute* trips over it; every
    other action does not return.
    """
    if spec.action == "raise":
        raise InjectedFault(
            f"injected fault: cell {_cell_label(spec)} raised (attempt filter "
            f"{'any' if spec.attempt is None else spec.attempt})"
        )
    if spec.action == "interrupt":
        raise KeyboardInterrupt(
            f"injected fault: interrupt at cell {_cell_label(spec)}"
        )
    if spec.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
        raise InjectedFault("unreachable: SIGKILL returned")  # pragma: no cover
    if spec.action == "hang":
        time.sleep(spec.seconds)
    if spec.action == "nan":
        guard.arm_nan_injection()
    if spec.action == "diverge":
        _diverge(spec)


def clear_fault_state() -> None:
    """Reset process-local chaos state after a cell (idempotent).

    ``nan`` leaves armed state behind by design (the cell's compute
    consumes it); the runner calls this after every attempt so a fault
    can never leak into the next cell.
    """
    guard.disarm_nan_injection()


def ensure_faults_observed(spec: Optional[FaultSpec]) -> None:
    """Fail loudly when an armed ``nan`` fault was never consumed.

    A chaos run whose injected NaN no boundary guard ever saw would
    silently prove nothing; raising here turns that into a visible
    cell failure naming the unconsumed action.
    """
    if spec is not None and spec.action == "nan" and guard.injection_armed():
        guard.disarm_nan_injection()
        raise guard.NumericalError(
            f"injected NaN for cell {_cell_label(spec)} was never observed: "
            "no guarded boundary crossing consumed it",
            boundary="runner.faults.ensure_faults_observed",
            array="nan_injection",
            injected=True,
        )
