"""Run the ``vrl-dram`` CLI with one fault strike armed.

The subprocess side of the CLI's signal tests: it arms a
:class:`~tests.fault_injection.Strike` and then calls the CLI's
``main`` in the same process, so the struck cell misbehaves exactly as
it would under :func:`~tests.fault_injection.inject` in a test::

    python -m tests.fault_cli MARKERS ACTION LABEL SECONDS -- VERB [FLAGS ...]

``SECONDS`` is how long a ``hang`` sleeps; the repository root must be
on ``PYTHONPATH`` next to ``src``.
"""

import sys
from pathlib import Path

from repro.experiments import cli
from tests.fault_injection import Strike, inject


def main(argv: list[str]) -> int:
    """Arm the strike named before ``--`` and run the CLI argv after it."""
    split = argv.index("--")
    markers, action, label, seconds = argv[:split]
    with inject(Path(markers), Strike(action, label, seconds=float(seconds))):
        return cli.main(argv[split + 1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
