"""Cell-level retention-time distribution (Liu et al. [27], Fig. 3a).

Real DRAM retention times follow a lognormal-shaped bulk (most cells
retain for seconds) with a thin "weak tail" of leaky cells reaching down
toward the refresh spec.  The paper assumes "a typical DRAM retention
time distribution [27]" and bins an 8192-row bank into the Fig. 3b
populations (68 / 101 / 145 / 7878 rows at 64 / 128 / 192 / 256 ms).

We model this as a two-component mixture:

* **bulk** — lognormal, median ~1.3 s: the overwhelming majority;
* **weak tail** — a rarer lognormal (median ~0.5 s, wider spread),
  truncated at the 64 ms spec floor, holding the cells that force short
  refresh periods.

The mixture weight and tail parameters are calibrated so that profiling
the paper's 8192x32 bank reproduces the Fig. 3b bin populations (see
``tests/test_calibration.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..units import MS


def _norm_cdf(z: float) -> float:
    """Standard normal CDF, ``Phi(z) = erfc(-z / sqrt 2) / 2``."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class RetentionDistribution:
    """Two-component lognormal mixture over cell retention times.

    Attributes:
        bulk_median: median retention of the bulk component (seconds).
        bulk_sigma: log-space standard deviation of the bulk.
        tail_median: median retention of the weak-tail component.
        tail_sigma: log-space standard deviation of the tail.
        tail_weight: probability that a cell is drawn from the tail.
        floor: minimum retention time (the 64 ms spec floor); samples
            below it are resampled (truncation), matching the absence of
            sub-64 ms rows in Fig. 3b.
    """

    bulk_median: float = 1.3
    bulk_sigma: float = 0.35
    tail_median: float = 0.5
    tail_sigma: float = 0.8
    tail_weight: float = 6.5e-3
    floor: float = 64 * MS

    def __post_init__(self) -> None:
        if self.bulk_median <= 0 or self.tail_median <= 0:
            raise ValueError("medians must be positive")
        if self.bulk_sigma <= 0 or self.tail_sigma <= 0:
            raise ValueError("sigmas must be positive")
        if not 0 <= self.tail_weight <= 1:
            raise ValueError(f"tail_weight must be in [0,1], got {self.tail_weight}")
        if self.floor <= 0:
            raise ValueError(f"floor must be positive, got {self.floor}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` cell retention times (seconds).

        Tail draws below the spec floor are resampled from the tail
        until valid — truncation, not clipping, so the floor does not
        accumulate a probability atom.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        is_tail = rng.random(n) < self.tail_weight
        out = np.empty(n)
        n_bulk = int(np.count_nonzero(~is_tail))
        out[~is_tail] = self._sample_component(
            n_bulk, self.bulk_median, self.bulk_sigma, rng
        )
        n_tail = n - n_bulk
        out[is_tail] = self._sample_component(
            n_tail, self.tail_median, self.tail_sigma, rng
        )
        return out

    def _sample_component(
        self, n: int, median: float, sigma: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample one truncated-lognormal component."""
        values = rng.lognormal(mean=np.log(median), sigma=sigma, size=n)
        for _ in range(100):
            bad = values < self.floor
            n_bad = int(np.count_nonzero(bad))
            if n_bad == 0:
                return values
            values[bad] = rng.lognormal(mean=np.log(median), sigma=sigma, size=n_bad)
        # Pathological parameterizations (floor far above the median)
        # could loop forever; clamp the stragglers instead.
        return np.maximum(values, self.floor)

    def cdf(self, t: float) -> float:
        """Mixture CDF at retention time ``t`` seconds (un-truncated).

        Used for analytic estimates of bin populations; the truncation
        correction is negligible at the calibrated parameters (the
        sub-floor mass is ~1e-5 of the tail).
        """
        if t <= 0:
            return 0.0
        z_bulk = (np.log(t) - np.log(self.bulk_median)) / self.bulk_sigma
        z_tail = (np.log(t) - np.log(self.tail_median)) / self.tail_sigma
        return float(
            (1 - self.tail_weight) * _norm_cdf(z_bulk) + self.tail_weight * _norm_cdf(z_tail)
        )

    def histogram(
        self, n_cells: int, rng: np.random.Generator, bin_width: float = 231 * MS, t_max: float = 4.8
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fig. 3a: retention-time histogram of ``n_cells`` sampled cells.

        The default bin width (~231 ms) matches the x-axis granularity of
        the paper's figure (bins at 65, 296, 526, ... ms).

        Returns:
            ``(bin_centers_seconds, counts)``.
        """
        samples = self.sample(n_cells, rng)
        edges = np.arange(self.floor, t_max + bin_width, bin_width)
        counts, edges = np.histogram(samples, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        return centers, counts
