"""Benchmark catalog: PARSEC-3.0 applications plus the ``bgsave`` server load.

Each :class:`WorkloadSpec` captures the trace-level structure that
matters to the refresh policies (see :mod:`repro.workloads`): working
set size, access skew, intensity, write share, and how much of the
stream is sequential scanning.  Parameter choices follow the published
characterization of PARSEC (Bienia et al. [2]: memory behaviour table)
qualitatively — e.g. ``canneal`` has a huge, poorly-localized working
set; ``swaptions`` is compute-bound with a tiny footprint; ``x264`` and
``vips`` stream; ``bgsave`` sequentially scans most of memory writing a
snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class WorkloadSpec:
    """Trace-generation parameters of one benchmark.

    Attributes:
        name: benchmark name (Fig. 4 x-axis label).
        footprint_rows: distinct DRAM rows in the working set.
        zipf_alpha: skew of the row-popularity distribution (0 =
            uniform; ~1 = strongly skewed toward hot rows).
        requests_per_second: average demand intensity at the bank.
        write_fraction: share of write requests.
        streaming_fraction: share of requests issued by a sequential
            scanner (models striding/streaming phases).
        description: one-line behaviour summary.
    """

    name: str
    footprint_rows: int
    zipf_alpha: float
    requests_per_second: float
    write_fraction: float
    streaming_fraction: float
    description: str

    def __post_init__(self) -> None:
        # NaN and inf slip past some of the range checks below, and the
        # trace generator would then draw garbage rows instead of failing.
        for field in (
            "zipf_alpha", "requests_per_second", "write_fraction", "streaming_fraction"
        ):
            value = getattr(self, field)
            if not math.isfinite(value):
                raise ValueError(f"{self.name}: {field} must be finite, got {value}")
        if self.footprint_rows <= 0:
            raise ValueError(f"{self.name}: footprint must be positive")
        if self.zipf_alpha < 0:
            raise ValueError(f"{self.name}: zipf_alpha must be >= 0")
        if self.requests_per_second <= 0:
            raise ValueError(f"{self.name}: intensity must be positive")
        if not 0 <= self.write_fraction <= 1:
            raise ValueError(f"{self.name}: write_fraction must be in [0,1]")
        if not 0 <= self.streaming_fraction <= 1:
            raise ValueError(f"{self.name}: streaming_fraction must be in [0,1]")


#: The Fig. 4 benchmark suite: PARSEC-3.0 applications + bgsave.
PARSEC_WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "blackscholes", 900, 0.9, 90e3, 0.25, 0.10,
            "option pricing; small working set, high locality, low intensity",
        ),
        WorkloadSpec(
            "bodytrack", 2200, 0.7, 160e3, 0.30, 0.15,
            "computer vision; medium footprint, moderate locality",
        ),
        WorkloadSpec(
            "canneal", 7000, 0.2, 260e3, 0.35, 0.05,
            "cache-hostile graph annealing; huge sparse working set",
        ),
        WorkloadSpec(
            "dedup", 4200, 0.5, 300e3, 0.45, 0.35,
            "pipelined compression; large footprint, streaming chunks",
        ),
        WorkloadSpec(
            "facesim", 3400, 0.6, 220e3, 0.35, 0.25,
            "physics simulation; iterative sweeps over large meshes",
        ),
        WorkloadSpec(
            "ferret", 2800, 0.6, 200e3, 0.25, 0.20,
            "similarity search pipeline; medium footprint",
        ),
        WorkloadSpec(
            "fluidanimate", 3000, 0.5, 240e3, 0.40, 0.30,
            "particle simulation; regular sweeps, moderate intensity",
        ),
        WorkloadSpec(
            "freqmine", 2600, 0.8, 180e3, 0.30, 0.10,
            "frequent itemset mining; tree-structured, skewed reuse",
        ),
        WorkloadSpec(
            "streamcluster", 5200, 0.3, 320e3, 0.20, 0.55,
            "online clustering; streaming-dominated, read-heavy",
        ),
        WorkloadSpec(
            "swaptions", 500, 1.0, 60e3, 0.20, 0.05,
            "Monte-Carlo pricing; compute-bound, tiny hot footprint",
        ),
        WorkloadSpec(
            "vips", 3800, 0.4, 280e3, 0.40, 0.50,
            "image pipeline; streaming tiles through memory",
        ),
        WorkloadSpec(
            "x264", 3200, 0.5, 260e3, 0.45, 0.45,
            "video encoding; frame streaming with motion-search reuse",
        ),
        WorkloadSpec(
            "bgsave", 7600, 0.1, 350e3, 0.55, 0.80,
            "Redis snapshot: sequential scan of nearly all of memory",
        ),
    )
}
