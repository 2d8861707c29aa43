"""Deterministic fault injection for the runner's fault-tolerance tests.

The runner's retries, watchdog, pool respawn, ``CellError`` diagnostics
and interrupt flush are only trustworthy if they can be exercised on
demand.  :func:`inject` wraps :func:`repro.runner.executor.compute_cell`
(the module-level name ``_compute_timed`` looks up in every process) so
chosen cells misbehave in one of six ways:

``raise``
    raise :class:`InjectedFault` (a ``RuntimeError``);
``hang``
    sleep ``seconds`` and then compute normally, like a wedged solve
    that only the watchdog ends;
``kill``
    ``SIGKILL`` the worker process, as the OOM killer would (refused in
    the process that armed the injection, so it never kills the tests);
``interrupt``
    raise ``KeyboardInterrupt``, as Ctrl-C inside a cell does;
``nan``
    compute the cell with its technology's ``vdd`` set to NaN, so the
    real ``TechnologyParams`` guard raises a
    :class:`~repro.guard.NumericalError` (the only float boundary a
    refresh-overhead cell crosses; its timeline guard checks an int);
``diverge``
    run a one-node circuit no rescue ladder can solve, so the real
    transient solver raises a
    :class:`~repro.circuit.rescue.ConvergenceError` with its report (the
    element has custom ``stamp`` arithmetic, so it is solved by the
    reference stamping of ``tests/reference_assembler.py``, installed
    in whichever process computes the cell).

A :class:`Strike` names its cell by label, so it does not depend on how
the pool schedules cells.  A strike fires on the cell's first attempt
only (or on every attempt): attempts are counted per label with
``O_CREAT | O_EXCL`` marker files, which holds across worker processes.
Pool workers inherit the wrapper through the ``fork`` start method;
under any other start method :func:`inject` raises instead of letting
the workers compute unharmed.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence
from urllib.parse import quote

from repro.circuit.netlist import Circuit, Element
from repro.runner import executor
from repro.runner.cache import cache_key
from repro.runner.cells import CELL_KINDS, Cell
from tests.reference_assembler import reference_session

ACTIONS = ("raise", "hang", "kill", "interrupt", "nan", "diverge")


class InjectedFault(RuntimeError):
    """The exception a ``raise`` strike throws."""


class StrikeRefused(BaseException):
    """A ``kill`` strike reached the process that armed it.

    A ``BaseException``, so the runner's per-cell capture cannot turn
    it into a failed cell: the test fails instead.
    """


@dataclass(frozen=True)
class Strike:
    """One injected fault: what happens, to which cell, how often.

    Attributes:
        action: one of :data:`ACTIONS`.
        label: the label of the struck cell.
        every_attempt: strike every attempt, not only the first, so
            retries cannot recover the cell.
        seconds: how long a ``hang`` sleeps.
    """

    action: str
    label: str
    every_attempt: bool = False
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}; expected one of {ACTIONS}")


class DivergentSource(Element):
    """A pathological one-node element no continuation can rescue.

    Its current chatters at 1e7 rad/V (|f'| ~ 1e5 at every fixed
    point), so damped Newton, step halving, *and* both rescue ladders
    fail — the real :class:`ConvergenceError` path, not a mock.
    """

    def __init__(self):
        super().__init__("divergent")

    def nodes(self):
        return ["a"]

    def stamp(self, G, I, x, v_prev, t, dt):
        idx = self._indices[0]
        G[idx, idx] += 1.0  # 1-ohm path to ground
        I[idx] += 10.0 * math.sin(1e7 * x[idx] + 1.0)


def run_divergent_circuit(name: str) -> None:
    """Simulate a :class:`DivergentSource`; raises ``ConvergenceError``."""
    circuit = Circuit(name=name)
    circuit.add(DivergentSource())
    reference_session(circuit).simulate(t_stop=1e-9, dt=1e-10)
    raise AssertionError("unreachable: divergent circuit converged")


def _attempt(markers: Path, label: str) -> int:
    """0-based attempt number of this compute of ``label``, in any process."""
    stem = quote(label, safe="")
    attempt = 0
    while True:
        try:
            os.close(os.open(markers / f"{stem}.{attempt}", os.O_CREAT | os.O_EXCL))
            return attempt
        except FileExistsError:
            attempt += 1


def _poisoned(params: dict) -> dict:
    """``params`` with the technology's ``vdd`` set to NaN."""
    return {**params, "tech": {**params["tech"], "vdd": float("nan")}}


@contextlib.contextmanager
def inject(
    markers: Path, *strikes: Strike, cells: Sequence[Cell] = ()
) -> Iterator[None]:
    """Arm ``strikes`` for every cell computed inside the ``with`` block.

    Args:
        markers: a directory for the attempt markers, created if
            missing (under a test's ``tmp_path``).
        strikes: the faults, at most one per label.
        cells: cells whose explicit labels differ from their kind's
            default label (built with the raw :class:`Cell` constructor);
            other cells are known by their kind's label.
    """
    method = multiprocessing.get_start_method()
    if method != "fork":
        raise RuntimeError(
            f"fault injection needs the 'fork' start method to reach pool "
            f"workers; this interpreter uses {method!r}"
        )
    markers.mkdir(parents=True, exist_ok=True)
    by_label = {strike.label: strike for strike in strikes}
    labels = {cache_key(cell.kind, cell.params): cell.label for cell in cells}
    home = os.getpid()
    real = executor.compute_cell

    def compute(kind: str, params: dict) -> dict:
        label = labels.get(cache_key(kind, params)) if labels else None
        strike = by_label.get(label or CELL_KINDS[kind].label(params))
        if strike is None:
            return real(kind, params)
        attempt = _attempt(markers, strike.label)
        if attempt > 0 and not strike.every_attempt:
            return real(kind, params)
        if strike.action == "raise":
            raise InjectedFault(
                f"injected fault: {strike.label} raised on attempt {attempt}"
            )
        if strike.action == "interrupt":
            raise KeyboardInterrupt(f"injected interrupt in {strike.label}")
        if strike.action == "kill":
            if os.getpid() == home:
                raise StrikeRefused(
                    f"kill strike on {strike.label} reached the arming process; "
                    "run the cell in a pool worker"
                )
            os.kill(os.getpid(), signal.SIGKILL)
        if strike.action == "hang":
            time.sleep(strike.seconds)
        if strike.action == "nan":
            return real(kind, _poisoned(params))
        if strike.action == "diverge":
            run_divergent_circuit(f"diverge {strike.label}")
        return real(kind, params)

    executor.compute_cell = compute
    try:
        yield
    finally:
        executor.compute_cell = real
