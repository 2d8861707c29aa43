"""One measured run of the end-to-end benchmark, in a fresh interpreter.

``run.py`` starts this file once per run::

    python benchmarks/e2e/child.py JOB.json

and reads back the JSON result written to the job's ``result`` path.
The ``ready`` stamp is taken on the system-wide monotonic clock right
after ``import repro.experiments.cli``; the parent stamped the spawn on
the same clock, so the difference is the set-up time: interpreter start
plus the CLI's imports.

The job lists the verb ``invocations``, the closed-loop ``passes`` over
them, the ``flags`` every call gets, and whether to ``trace``.  Each
call goes through ``cli.main(argv)`` with its stdout captured.
``LocalClient.sweep`` is always wrapped, to count ops and failed ops
from the returned reports; with ``trace`` every boundary in
:mod:`spans` is.
"""

import sys
import time


def main(job_path: str) -> int:
    from repro.experiments import cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    # The harness's own imports come after the stamp: set-up time is
    # what a user of the CLI pays, not what the benchmark adds.
    import contextlib
    import io
    import json
    import platform
    import resource
    from pathlib import Path

    import spans

    job = json.loads(Path(job_path).read_text())
    result: dict = {"ready": ready}
    if job.get("import_only"):
        import numpy
        import scipy

        result["versions"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
    else:
        boundaries = spans.BOUNDARIES if job["trace"] else (spans.SWEEP,)
        wall = 0.0
        ops = failed = 0
        with spans.Tracer(boundaries) as tracer:
            for _ in range(job["passes"]):
                for invocation in job["invocations"]:
                    argv = invocation.split() + job["flags"]
                    seen = len(tracer.spans)
                    root = tracer.root(argv[0]) if job["trace"] else contextlib.nullcontext()
                    t0 = time.perf_counter()
                    with root, contextlib.redirect_stdout(io.StringIO()):
                        rc = _call(cli.main, argv)
                    wall += time.perf_counter() - t0
                    # An op is one sweep cell, or one call that swept
                    # nothing; a call exiting non-zero is a failed op.
                    sweeps = [s[4] for s in tracer.spans[seen:] if s[4] and "ops" in s[4]]
                    ops += sum(s["ops"] for s in sweeps) if sweeps else 1
                    failed += sum(s["failed"] for s in sweeps)
                    if rc != 0:
                        failed += 1
                        ops += bool(sweeps)
        result.update(
            wall_s=wall,
            ops=ops,
            failed=failed,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            trace=tracer.metrics() if job["trace"] else None,
        )
    tmp = Path(job["result"] + ".tmp")
    tmp.write_text(json.dumps(result))
    tmp.replace(job["result"])
    return 0


def _call(entry, argv) -> int:
    """``entry(argv)``'s exit code; a raised error is reported and counted
    as a failed call so the remaining calls still run."""
    try:
        return entry(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        import traceback

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
