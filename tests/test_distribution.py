"""Unit tests for the retention-time distribution."""

import numpy as np
import pytest
from scipy.stats import norm

from repro.retention import RetentionDistribution
from repro.units import MS


@pytest.fixture
def dist():
    return RetentionDistribution()


class TestValidation:
    def test_rejects_non_positive_median(self):
        with pytest.raises(ValueError, match="median"):
            RetentionDistribution(bulk_median=0.0)

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            RetentionDistribution(tail_sigma=-1.0)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError, match="tail_weight"):
            RetentionDistribution(tail_weight=1.5)

    def test_rejects_non_positive_floor(self):
        with pytest.raises(ValueError, match="floor"):
            RetentionDistribution(floor=0.0)


class TestSampling:
    def test_respects_spec_floor(self, dist):
        rng = np.random.default_rng(1)
        samples = dist.sample(200_000, rng)
        assert samples.min() >= dist.floor

    def test_deterministic_with_seed(self, dist):
        a = dist.sample(1000, np.random.default_rng(42))
        b = dist.sample(1000, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, dist):
        a = dist.sample(1000, np.random.default_rng(1))
        b = dist.sample(1000, np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_bulk_dominates(self, dist):
        """Most cells retain around the bulk median (seconds, not ms)."""
        samples = dist.sample(50_000, np.random.default_rng(3))
        assert np.median(samples) == pytest.approx(dist.bulk_median, rel=0.1)

    def test_weak_tail_exists(self, dist):
        samples = dist.sample(500_000, np.random.default_rng(4))
        weak = np.count_nonzero(samples < 256 * MS)
        # Calibrated to ~1.2e-3 of cells below 256 ms.
        assert 0.0005 < weak / len(samples) < 0.003

    def test_zero_samples(self, dist):
        assert len(dist.sample(0, np.random.default_rng(0))) == 0

    def test_rejects_negative_count(self, dist):
        with pytest.raises(ValueError, match="non-negative"):
            dist.sample(-1, np.random.default_rng(0))

    def test_pure_bulk_when_weight_zero(self):
        """Without the weak tail, deeply-weak cells (< 128 ms) vanish.

        The bulk lognormal still has a vanishing (~1e-6) probability of
        landing just under 256 ms, so the assertion targets the region
        only the tail can populate.
        """
        dist = RetentionDistribution(tail_weight=0.0)
        samples = dist.sample(100_000, np.random.default_rng(5))
        assert np.count_nonzero(samples < 128 * MS) == 0


class TestCdf:
    def test_monotone(self, dist):
        ts = np.linspace(0.01, 5.0, 50)
        cdfs = [dist.cdf(float(t)) for t in ts]
        assert all(b >= a for a, b in zip(cdfs, cdfs[1:]))

    def test_limits(self, dist):
        assert dist.cdf(0.0) == 0.0
        assert dist.cdf(-1.0) == 0.0
        assert dist.cdf(1e6) == pytest.approx(1.0)

    def test_matches_empirical(self, dist):
        samples = dist.sample(200_000, np.random.default_rng(6))
        for t in (0.5, 1.0, 2.0):
            empirical = np.count_nonzero(samples < t) / len(samples)
            assert dist.cdf(t) == pytest.approx(empirical, abs=0.01)

    @pytest.mark.parametrize(
        "dist",
        [
            RetentionDistribution(),
            RetentionDistribution(tail_weight=0.3, tail_sigma=1.7, bulk_sigma=0.05),
        ],
        ids=["default", "heavy-tail"],
    )
    def test_matches_scipy_norm_cdf(self, dist):
        w = dist.tail_weight
        for t in np.geomspace(1e-4, 1e3, 701):
            z_bulk = (np.log(t) - np.log(dist.bulk_median)) / dist.bulk_sigma
            z_tail = (np.log(t) - np.log(dist.tail_median)) / dist.tail_sigma
            want = (1 - w) * norm.cdf(z_bulk) + w * norm.cdf(z_tail)
            assert dist.cdf(float(t)) == pytest.approx(want, rel=0, abs=1e-15)


class TestHistogram:
    def test_centers_and_counts_align(self, dist):
        centers, counts = dist.histogram(10_000, np.random.default_rng(7))
        assert len(centers) == len(counts)
        assert counts.sum() <= 10_000  # samples above t_max fall outside

    def test_covers_paper_range(self, dist):
        centers, _ = dist.histogram(1000, np.random.default_rng(8))
        assert centers[0] < 0.3  # first bin near the 64 ms floor
        assert centers[-1] > 4.0  # reaches the paper's ~4.7 s
