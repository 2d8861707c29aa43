"""Workload traces: PARSEC-3.0-like benchmark suite + ``bgsave``.

The paper evaluates on Ramulator-generated memory traces of PARSEC-3.0
[2] plus the Redis ``bgsave`` server benchmark [19].  Without the
proprietary trace files, this package generates synthetic traces with
each benchmark's characteristic access structure (working-set size, row
locality, intensity, read/write mix) — see DESIGN.md §3 for why this
substitution preserves the Fig. 4 behaviour: only the per-refresh-window
row-coverage structure matters to VRL-Access.
"""

from .benchmarks import PARSEC_WORKLOADS, WorkloadSpec, workload_names
from .generator import TraceGenerator

__all__ = [
    "PARSEC_WORKLOADS",
    "WorkloadSpec",
    "workload_names",
    "TraceGenerator",
]
