#!/usr/bin/env python3
"""Fingerprint every circuit waveform the circuit-anchors verbs compute.

Runs the 13 verbs of the end-to-end benchmark's ``circuit-anchors``
workload through ``repro.experiments.cli.main`` (cold: ``--no-cache``,
``--jobs 1``, no run manifest), each in a fresh interpreter as the
benchmark runs them, with ``CircuitSession.simulate`` and
``BatchedCircuitSession.simulate_batch`` wrapped.  Prints one line per
lane, ``<verb> <lane> <sha256>``, a verb's lanes numbered in call order
and the digest covering the lane's time axis and every recorded voltage
and current array; then the lane count and the summed
:class:`~repro.circuit.solver.SolverStats` counters of all calls.  Two
checkouts that print the same lines compute the same circuits bit for
bit, with the same Newton work.

Usage::

    PYTHONPATH=src python scripts/circuit_lanes.py [--seed 2018] [VERB ...]

or ``make lanes``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

#: The ``circuit-anchors`` workload's verbs (``benchmarks/e2e/run.py``).
VERBS = (
    "fig1a", "fig1b", "fig3", "sec31", "fig5", "table1", "table2",
    "ablation-nbits", "ablation-geometry", "ablation-bins",
    "sensitivity", "validate", "calibrate",
)

#: The summed ``SolverStats`` counters, in print order.
COUNTERS = (
    "newton_iterations", "factorizations", "accepted_steps",
    "rejected_steps", "subdivisions", "rescues",
)


def _digest(time, arrays) -> str:
    """SHA-256 of a lane's time axis and its ``(name, array)`` pairs."""
    h = hashlib.sha256(time.tobytes())
    for name, values in arrays:
        h.update(name.encode())
        h.update(values.tobytes())
    return h.hexdigest()


def _lane_digests(result) -> list[str]:
    """One digest per lane of a ``TransientResult`` or a batched result."""
    n_lanes = getattr(result, "n_lanes", None)
    if n_lanes is None:
        arrays = [("v:" + k, v) for k, v in result.voltages.items()]
        arrays += [("i:" + k, v) for k, v in result.currents.items()]
        return [_digest(result.time, arrays)]
    return [
        _digest(result.time, [("v:" + k, v[lane]) for k, v in result.voltages.items()])
        for lane in range(n_lanes)
    ]


def fingerprint(verb: str, seed: int) -> dict:
    """Run one verb in this process; its lanes' digests and summed stats."""
    from repro.circuit import BatchedCircuitSession, CircuitSession
    from repro.experiments import cli

    lanes: list[str] = []
    totals = dict.fromkeys(COUNTERS, 0)
    depth = 0

    def wrap(owner, attr):
        real = vars(owner)[attr]

        def wrapper(*args, **kwargs):
            nonlocal depth
            depth += 1
            try:
                result = real(*args, **kwargs)
            finally:
                depth -= 1
            if depth == 0:  # a nested call's work is its caller's
                lanes.extend(_lane_digests(result))
                for name in COUNTERS:
                    totals[name] += getattr(result.stats, name)
            return result

        setattr(owner, attr, wrapper)

    wrap(CircuitSession, "simulate")
    wrap(BatchedCircuitSession, "simulate_batch")
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(
            [verb, "--seed", str(seed), "--jobs", "1", "--no-cache",
             "--cache-dir", os.path.join(work, "cache"), "--runs-dir", ""]
        )
    if code:
        raise SystemExit(f"{verb}: vrl-dram exited {code}")
    return {"lanes": lanes, "stats": totals}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("verbs", nargs="*", default=list(VERBS), metavar="VERB")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.in_process:
        # The child side: one verb, its fingerprint as one JSON line.
        print(json.dumps(fingerprint(args.verbs[0], args.seed)))
        return 0

    totals = dict.fromkeys(COUNTERS, 0)
    n_lanes = 0
    for verb in args.verbs:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--in-process",
             "--seed", str(args.seed), verb],
            check=True, capture_output=True, text=True,
        ).stdout
        record = json.loads(out.splitlines()[-1])
        for lane, digest in enumerate(record["lanes"]):
            print(f"{verb} {lane} {digest}")
        n_lanes += len(record["lanes"])
        for name in COUNTERS:
            totals[name] += record["stats"][name]
    print(f"lanes={n_lanes} " + " ".join(f"{k}={v}" for k, v in totals.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
