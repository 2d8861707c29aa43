"""Unit tests for the refresh scheduling policies (Algorithm 1)."""

import numpy as np
import pytest

from repro.controller import (
    MECHANISMS,
    ChargeCachePolicy,
    FixedRefreshPolicy,
    RAIDRPolicy,
    RefreshKind,
    RefreshPolicy,
    VRLAccessPolicy,
    VRLPolicy,
    build_policy,
)
from repro.retention import BinningResult, RefreshBinning, RetentionProfiler
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.units import MS
from tests.test_differential_engine_fastpath import _load_custom_policy_module

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


    def test_batch_access_resets_every_row(self):
        binning = _binning([256 * MS] * 3)
        policy = VRLAccessPolicy(binning, np.array([2, 2, 2]), tau_full=19, tau_partial=11)
        for row in range(3):
            policy.refresh_row(row)  # rcount 1 everywhere
        policy.on_access_rows(np.array([2, 0]))
        assert policy.rcount.values.tolist() == [0, 1, 0]


def _policy_classes():
    """Every policy class of the registry and ``VRLTempPolicy``, with bases."""
    profile = RetentionProfiler(seed=5).profile(BankGeometry(32, 8))
    binning = RefreshBinning().assign(profile)
    built = [type(MECHANISMS.build(name, TECH, profile, binning)) for name in MECHANISMS.names()]
    built.append(_load_custom_policy_module().VRLTempPolicy)
    return sorted(
        {klass for policy_class in built for klass in policy_class.__mro__
         if issubclass(klass, RefreshPolicy) and klass is not RefreshPolicy},
        key=lambda klass: klass.__qualname__,
    )


def _subclass(base, **body):
    return type("Custom", (base,), body)


class TestPolicySurfaceCheck:
    """``RefreshPolicy.__init_subclass__``: the spec always describes the kernel."""

    @pytest.mark.parametrize("klass", _policy_classes(), ids=lambda k: k.__qualname__)
    def test_every_policy_class_passes(self, klass):
        klass.__init_subclass__()

    def test_covers_the_kernel_subclasses(self):
        names = {klass.__qualname__ for klass in _policy_classes()}
        assert {"VRLPolicy", "VRLAccessPolicy", "VRLTempPolicy", "DARPPolicy",
                "ChargeCachePolicy", "AVATARPolicy"} <= names

    @pytest.mark.parametrize(
        "wrapper",
        ["decide", "on_access_rows", "refresh_row", "on_access", "access_latency_cycles",
         "row_period"],
    )
    @pytest.mark.parametrize("base", [RefreshPolicy, VRLAccessPolicy, ChargeCachePolicy])
    def test_a_wrapper_override_is_refused(self, base, wrapper):
        with pytest.raises(TypeError) as raised:
            _subclass(base, **{wrapper: lambda self, *args: None,
                               "timeline_spec": base.timeline_spec})
        assert str(raised.value).startswith(f"Custom overrides {wrapper},")

    @pytest.mark.parametrize("hook", ["_decide_batch", "_on_access_batch"])
    @pytest.mark.parametrize("base", [RefreshPolicy, VRLPolicy, VRLAccessPolicy])
    def test_a_hook_without_its_spec_is_refused(self, base, hook):
        with pytest.raises(TypeError) as raised:
            _subclass(base, **{hook: getattr(base, hook)})
        assert str(raised.value).startswith(f"Custom defines {hook} without timeline_spec")

    @pytest.mark.parametrize("hook", ["_decide_batch", "_on_access_batch"])
    def test_a_hook_with_its_spec_is_accepted(self, hook):
        klass = _subclass(VRLPolicy, **{hook: getattr(VRLAccessPolicy, hook),
                                        "timeline_spec": VRLAccessPolicy.timeline_spec})
        assert issubclass(klass, VRLPolicy)

    def test_a_row_period_override_alone_is_refused(self):
        """A policy priced at its parent's ``row_periods()`` whatever its
        ``row_period`` says cannot be declared."""
        with pytest.raises(TypeError, match="^Slow overrides row_period, .*row_periods"):

            class Slow(RAIDRPolicy):
                def row_period(self, row):
                    return 256 * MS

    def test_row_period_is_row_periods_for_every_mechanism(self):
        profile = RetentionProfiler(seed=5).profile(BankGeometry(32, 8))
        binning = RefreshBinning().assign(profile)
        for name in MECHANISMS.names():
            policy = MECHANISMS.build(name, TECH, profile, binning)
            periods = policy.row_periods()
            assert [policy.row_period(r) for r in range(policy.n_rows)] == periods.tolist(), name

    def test_the_spec_alone_and_flags_are_free(self):
        _subclass(RAIDRPolicy, timeline_spec=RAIDRPolicy.timeline_spec,
                  needs_trace=True, row_periods=RAIDRPolicy.row_periods)


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
