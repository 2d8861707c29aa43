"""Unit tests for the refresh scheduling policies (Algorithm 1)."""

import numpy as np
import pytest

from repro.controller import (
    FixedRefreshPolicy,
    RAIDRPolicy,
    RefreshKind,
    VRLAccessPolicy,
    VRLPolicy,
    build_policy,
)
from repro.retention import BinningResult, RefreshBinning, RetentionProfiler
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.units import MS

TECH = DEFAULT_TECH


def _binning(periods):
    periods = np.asarray(periods, dtype=float)
    available = (64 * MS, 128 * MS, 192 * MS, 256 * MS)
    bins = np.array([available.index(p) for p in periods])
    return BinningResult(periods=available, row_period=periods, row_bin=bins)


class TestFixedPolicy:
    def test_always_full_64ms(self):
        policy = FixedRefreshPolicy(n_rows=4, tau_full=19)
        cmd = policy.refresh_row(2)
        assert cmd.kind is RefreshKind.FULL
        assert cmd.latency_cycles == 19
        assert policy.row_period(2) == 64 * MS

    def test_row_bounds(self):
        policy = FixedRefreshPolicy(n_rows=4, tau_full=19)
        with pytest.raises(IndexError):
            policy.refresh_row(4)
        with pytest.raises(IndexError):
            policy.on_access(-1)

    def test_validation(self):
        with pytest.raises(ValueError, match="row"):
            FixedRefreshPolicy(n_rows=0, tau_full=19)
        with pytest.raises(ValueError, match="tau_full"):
            FixedRefreshPolicy(n_rows=4, tau_full=0)
        with pytest.raises(ValueError, match="period"):
            FixedRefreshPolicy(n_rows=4, tau_full=19, period=-1.0)


class TestRAIDRPolicy:
    def test_binned_periods(self):
        binning = _binning([64 * MS, 256 * MS])
        policy = RAIDRPolicy(binning, tau_full=19)
        assert policy.row_period(0) == 64 * MS
        assert policy.row_period(1) == 256 * MS

    def test_always_full(self):
        policy = RAIDRPolicy(_binning([64 * MS]), tau_full=19)
        for _ in range(5):
            assert policy.refresh_row(0).kind is RefreshKind.FULL

    def test_row_periods_copy(self):
        binning = _binning([64 * MS, 128 * MS])
        policy = RAIDRPolicy(binning, tau_full=19)
        periods = policy.row_periods()
        periods[0] = 1.0
        assert policy.row_period(0) == 64 * MS


class TestVRLPolicy:
    def _policy(self, mprsf, nbits=2):
        n = len(mprsf)
        binning = _binning([256 * MS] * n)
        return VRLPolicy(binning, np.asarray(mprsf), tau_full=19, tau_partial=11, nbits=nbits)

    def test_algorithm1_sequence(self):
        """mprsf=3: P P P F P P P F ... (partial until rcount == mprsf)."""
        policy = self._policy([3])
        kinds = [policy.refresh_row(0).kind for _ in range(8)]
        expected = [RefreshKind.PARTIAL] * 3 + [RefreshKind.FULL]
        assert kinds == expected * 2

    def test_zero_mprsf_always_full(self):
        policy = self._policy([0])
        kinds = {policy.refresh_row(0).kind for _ in range(4)}
        assert kinds == {RefreshKind.FULL}

    def test_latencies(self):
        policy = self._policy([1])
        first = policy.refresh_row(0)
        second = policy.refresh_row(0)
        assert first.latency_cycles == 11
        assert second.latency_cycles == 19

    def test_mprsf_saturated_by_counter_width(self):
        policy = self._policy([10], nbits=2)
        kinds = [policy.refresh_row(0).kind for _ in range(4)]
        assert kinds == [RefreshKind.PARTIAL] * 3 + [RefreshKind.FULL]

    def test_rows_independent(self):
        policy = self._policy([1, 0])
        assert policy.refresh_row(0).kind is RefreshKind.PARTIAL
        assert policy.refresh_row(1).kind is RefreshKind.FULL
        assert policy.refresh_row(0).kind is RefreshKind.FULL

    def test_access_does_not_reset_plain_vrl(self):
        policy = self._policy([3])
        policy.refresh_row(0)
        policy.refresh_row(0)
        policy.on_access(0)  # plain VRL ignores accesses
        policy.refresh_row(0)
        assert policy.refresh_row(0).kind is RefreshKind.FULL

    def test_reset_clears_rcount(self):
        policy = self._policy([3])
        policy.refresh_row(0)
        policy.reset()
        kinds = [policy.refresh_row(0).kind for _ in range(4)]
        assert kinds == [RefreshKind.PARTIAL] * 3 + [RefreshKind.FULL]

    def test_rejects_bad_tau_partial(self):
        binning = _binning([256 * MS])
        with pytest.raises(ValueError, match="tau_partial"):
            VRLPolicy(binning, np.array([1]), tau_full=19, tau_partial=0)
        with pytest.raises(ValueError, match="tau_partial"):
            VRLPolicy(binning, np.array([1]), tau_full=19, tau_partial=20)


class TestVRLAccessPolicy:
    def _policy(self, mprsf):
        binning = _binning([256 * MS] * len(mprsf))
        return VRLAccessPolicy(
            binning, np.asarray(mprsf), tau_full=19, tau_partial=11, nbits=2
        )

    def test_access_extends_partial_run(self):
        """An access resets rcount, postponing the full refresh."""
        policy = self._policy([2])
        assert policy.refresh_row(0).kind is RefreshKind.PARTIAL
        assert policy.refresh_row(0).kind is RefreshKind.PARTIAL
        policy.on_access(0)  # activation fully restored the row
        assert policy.refresh_row(0).kind is RefreshKind.PARTIAL
        assert policy.refresh_row(0).kind is RefreshKind.PARTIAL
        assert policy.refresh_row(0).kind is RefreshKind.FULL

    def test_access_does_not_help_zero_mprsf(self):
        policy = self._policy([0])
        policy.on_access(0)
        assert policy.refresh_row(0).kind is RefreshKind.FULL

    def test_continuous_access_all_partial(self):
        policy = self._policy([1])
        for _ in range(10):
            policy.on_access(0)
            assert policy.refresh_row(0).kind is RefreshKind.PARTIAL


    def test_batch_access_honours_a_scalar_override(self):
        """A subclass customizing only ``on_access`` sees every row of a
        batch through its override, in order."""
        seen = []

        class Counting(VRLAccessPolicy):
            def on_access(self, row):
                seen.append(row)
                super().on_access(row)

        binning = _binning([256 * MS] * 3)
        policy = Counting(binning, np.array([2, 2, 2]), tau_full=19, tau_partial=11)
        for row in range(3):
            policy.refresh_row(row)  # rcount 1 everywhere
        policy.on_access_rows(np.array([2, 0]))
        assert seen == [2, 0]
        assert policy.rcount.values.tolist() == [0, 1, 0]

class TestBuildPolicy:
    @pytest.fixture(scope="class")
    def inputs(self):
        geometry = BankGeometry(128, 8)
        profile = RetentionProfiler(seed=5).profile(geometry)
        binning = RefreshBinning().assign(profile)
        return profile, binning

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("fixed", FixedRefreshPolicy),
            ("raidr", RAIDRPolicy),
            ("vrl", VRLPolicy),
            ("vrl-access", VRLAccessPolicy),
        ],
    )
    def test_builds_each_policy(self, inputs, name, cls):
        profile, binning = inputs
        policy = build_policy(name, TECH, profile, binning)
        assert type(policy) is cls
        assert policy.n_rows == 128

    def test_vrl_uses_model_latencies(self, inputs):
        profile, binning = inputs
        policy = build_policy("vrl", TECH, profile, binning)
        from repro.model import RefreshLatencyModel

        model = RefreshLatencyModel(TECH, profile.geometry)
        assert policy.tau_full == model.full_refresh().total_cycles
        assert policy.tau_partial == model.partial_refresh().total_cycles
        assert policy.tau_partial < policy.tau_full

    def test_unknown_name(self, inputs):
        profile, binning = inputs
        with pytest.raises(ValueError, match="unknown policy"):
            build_policy("bogus", TECH, profile, binning)

    def test_nbits_respected(self, inputs):
        profile, binning = inputs
        policy = build_policy("vrl", TECH, profile, binning, nbits=3)
        assert policy.mprsf.max_value == 7
