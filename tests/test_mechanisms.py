"""Mechanism registry and rival policies: DARP, ChargeCache, AVATAR.

Pins the tentpole invariants of the mechanism registry refactor:

* **registry semantics** — registration, duplicate protection, flag
  inheritance from the policy class, helpful unknown-name errors, and
  invariant 15: a registry-built policy is bit-identical to direct
  construction, and ``build_policy`` is pure registry dispatch;
* **DARP** — out-of-order deferral changes demand-side stalls only;
  refresh counts/kinds/cycles are identical to the conventional
  schedule (reorder-invariance), writes never defer, zero slack
  degenerates to baseline arbitration;
* **ChargeCache** — the recently-accessed-row table (expiry,
  least-recently-used capacity eviction, counter-file valid bits)
  discounts only activations, never row-buffer hits, and never below
  one cycle;
* **AVATAR** — the construction-time VRT profiling loop upgrades only
  rows that stay clean for the full streak and pins failing rows at
  the conservative rate, deterministically per seed;
* **differential** — every new mechanism prices identically through
  the evaluator's fused timeline, the round walk of
  ``tests/reference_refresh.py``, and the cycle-level engine.
"""

import numpy as np
import pytest

from repro.controller import (
    AVATARPolicy,
    ChargeCachePolicy,
    DARPPolicy,
    MECHANISMS,
    MechanismRegistry,
    build_policy,
)
from repro.retention import RefreshBinning, RetentionProfiler
from repro.retention.profiler import RetentionProfile
from repro.retention.vrt import VRTParameters
from repro.sim import (
    BankSimulator,
    DRAMTiming,
    MemoryTrace,
    RefreshOverheadEvaluator,
)
from repro.sim.schedule import should_defer_refresh
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.units import MS
from tests.reference_refresh import round_walk

TIMING = DRAMTiming.from_technology(DEFAULT_TECH)

NEW_MECHANISMS = ("darp", "chargecache", "avatar")


def _profile_binning(geometry, seed=5):
    profile = RetentionProfiler(seed=seed).profile(geometry)
    return profile, RefreshBinning().assign(profile)


def _policy(name, geometry, seed=5, nbits=2):
    profile, binning = _profile_binning(geometry, seed)
    return build_policy(name, DEFAULT_TECH, profile, binning, nbits=nbits)


def _trace(geometry, duration, n=400, seed=3, write_fraction=0.3):
    rng = np.random.default_rng(seed)
    return MemoryTrace(
        np.sort(rng.integers(0, duration, n)).astype(np.int64),
        rng.integers(0, geometry.rows, n).astype(np.int64),
        rng.random(n) < write_fraction,
        name="mechanisms",
    )


def _refresh_tuple(stats):
    return (stats.full_refreshes, stats.partial_refreshes, stats.refresh_cycles)


# ------------------------------------------------------------------ #
# Registry semantics                                                  #
# ------------------------------------------------------------------ #


class TestRegistry:
    def test_builtins_registered(self):
        assert set(NEW_MECHANISMS) <= set(MECHANISMS.names())
        assert {"fixed", "raidr", "vrl", "vrl-access", "fgr-2x", "fgr-4x"} <= set(
            MECHANISMS
        )
        assert len(MECHANISMS) == len(MECHANISMS.names())

    def test_flags_inherit_from_policy_class(self):
        """Registered capability flags can never drift from the class."""
        for name, cls in (
            ("darp", DARPPolicy),
            ("chargecache", ChargeCachePolicy),
            ("avatar", AVATARPolicy),
            ("fixed", None),
        ):
            info = MECHANISMS.get(name)
            assert info.needs_trace == bool(getattr(cls, "needs_trace", False))
            assert info.reorders_refresh == bool(
                getattr(cls, "reorders_refresh", False)
            )
            assert info.modulates_access == bool(
                getattr(cls, "modulates_access", False)
            )

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="unknown policy 'bogus'") as err:
            MECHANISMS.get("bogus")
        for name in MECHANISMS.names():
            assert name in str(err.value)

    def test_duplicate_requires_replace(self):
        registry = MechanismRegistry()
        registry.register("toy", lambda *a: None)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("toy", lambda *a: None)
        registry.register("toy", lambda *a: None, replace=True)
        assert "toy" in registry

    def test_register_takes_flags_from_the_policy_class(self):
        registry = MechanismRegistry()
        info = registry.register(
            "toy", lambda *a: None, policy=DARPPolicy, description="d"
        )
        assert info.reorders_refresh and info.needs_trace
        assert not info.modulates_access
        assert registry.names() == ["toy"]

    def test_explicit_flags_override_class(self):
        registry = MechanismRegistry()
        info = registry.register(
            "toy", lambda *a: None, policy=DARPPolicy, reorders_refresh=False
        )
        assert not info.reorders_refresh
        assert info.needs_trace  # still inherited

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            MechanismRegistry().register("", lambda *a: None)

    def test_build_policy_dispatches_through_registry(self, monkeypatch):
        """The old if-ladder is gone: registrations reach build_policy."""
        monkeypatch.setattr(MECHANISMS, "_infos", dict(MECHANISMS._infos))
        registry_entry = MECHANISMS.register(
            "test-only-toy",
            lambda tech, profile, binning, nbits: build_policy(
                "fixed", tech, profile, binning
            ),
        )
        geometry = BankGeometry(32, 8)
        profile, binning = _profile_binning(geometry)
        policy = build_policy("test-only-toy", DEFAULT_TECH, profile, binning)
        assert policy.name == "fixed-64ms"
        assert registry_entry.name in MECHANISMS

    def test_describe_matches_names(self):
        infos = MECHANISMS.describe()
        assert [info.name for info in infos] == MECHANISMS.names()
        assert all(info.description for info in infos)

    def test_default_access_hook_is_identity(self):
        """Policies that don't modulate access return base latency as-is."""
        policy = _policy("fixed", BankGeometry(8, 8))
        assert not policy.modulates_access
        assert policy.access_latency_cycles(3, 18, False, 0) == 18
        with pytest.raises(IndexError):
            policy.access_latency_cycles(8, 18, False, 0)

    @pytest.mark.parametrize(
        "name", ("fixed", "fgr-2x", "raidr", "vrl", "vrl-access", *NEW_MECHANISMS)
    )
    def test_registry_build_identical_to_direct(self, name):
        """Invariant 15: registry-built ≡ direct construction."""
        geometry = BankGeometry(48, 8)
        profile, binning = _profile_binning(geometry)
        built = MECHANISMS.build(name, DEFAULT_TECH, profile, binning)
        direct = build_policy(name, DEFAULT_TECH, profile, binning)
        assert type(built) is type(direct)
        np.testing.assert_array_equal(built.row_periods(), direct.row_periods())
        duration = TIMING.cycles(400 * MS)
        trace = _trace(geometry, duration)
        a = BankSimulator(built, TIMING).run(trace=trace, duration_cycles=duration)
        b = BankSimulator(direct, TIMING).run(trace=trace, duration_cycles=duration)
        assert _refresh_tuple(a.refresh) == _refresh_tuple(b.refresh)
        assert (
            a.requests.total_latency_cycles == b.requests.total_latency_cycles
        )


# ------------------------------------------------------------------ #
# DARP                                                                #
# ------------------------------------------------------------------ #


class TestDARP:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_defer_cycles"):
            DARPPolicy(8, 19, max_defer_cycles=-1)

    def test_should_defer_rules(self):
        # No pending request, or a pending write: never defer.
        assert not should_defer_refresh(100, 19, None, False, 200)
        assert not should_defer_refresh(100, 19, 105, True, 200)
        # Read colliding with the refresh window, slack left: defer.
        assert should_defer_refresh(100, 19, 105, False, 200)
        # Read after the window (idle window found): issue the refresh.
        assert not should_defer_refresh(100, 19, 119, False, 200)
        # Slack exhausted (strict limit): issue unconditionally.
        assert not should_defer_refresh(100, 19, 105, False, 105)

    def test_refresh_stats_reorder_invariant(self):
        """Deferral moves refreshes in time, never changes what runs."""
        geometry = BankGeometry(64, 8)
        duration = TIMING.cycles(500 * MS)
        trace = _trace(geometry, duration, n=2000, write_fraction=0.3)
        fixed = BankSimulator(_policy("fixed", geometry), TIMING).run(
            trace=trace, duration_cycles=duration
        )
        darp = BankSimulator(_policy("darp", geometry), TIMING).run(
            trace=trace, duration_cycles=duration
        )
        assert _refresh_tuple(darp.refresh) == _refresh_tuple(fixed.refresh)
        assert darp.requests.n_requests == fixed.requests.n_requests
        assert (
            darp.requests.refresh_stall_cycles
            <= fixed.requests.refresh_stall_cycles
        )
        assert (
            darp.requests.total_latency_cycles
            <= fixed.requests.total_latency_cycles
        )

    def test_zero_slack_degenerates_to_baseline(self):
        geometry = BankGeometry(64, 8)
        profile, binning = _profile_binning(geometry)
        fixed = build_policy("fixed", DEFAULT_TECH, profile, binning)
        zero = DARPPolicy(geometry.rows, fixed.tau_full, max_defer_cycles=0)
        duration = TIMING.cycles(500 * MS)
        trace = _trace(geometry, duration, n=2000)
        a = BankSimulator(fixed, TIMING).run(trace=trace, duration_cycles=duration)
        b = BankSimulator(zero, TIMING).run(trace=trace, duration_cycles=duration)
        assert _refresh_tuple(a.refresh) == _refresh_tuple(b.refresh)
        assert (
            a.requests.refresh_stall_cycles == b.requests.refresh_stall_cycles
        )
        assert (
            a.requests.total_latency_cycles == b.requests.total_latency_cycles
        )

    def test_colliding_read_is_served_first(self):
        """One read landing inside the refresh window jumps the queue."""
        geometry = BankGeometry(8, 8)
        fixed = _policy("fixed", geometry)
        policy = DARPPolicy(
            geometry.rows, fixed.tau_full, max_defer_cycles=1000
        )
        sim = BankSimulator(policy, TIMING, geometry)
        # First refresh of row 1 is due at period/8; aim a read 1 cycle
        # after a due refresh would start.
        from repro.sim.schedule import first_deadlines, period_cycles

        periods = period_cycles(policy, TIMING)
        due = int(first_deadlines(periods)[1])
        trace = MemoryTrace(
            np.array([due + 1], dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([False]),
            name="collide",
        )
        result = sim.run(trace=trace, duration_cycles=due + 2000)
        assert result.requests.refresh_stall_cycles == 0

        baseline = BankSimulator(fixed, TIMING, geometry).run(
            trace=trace, duration_cycles=due + 2000
        )
        assert baseline.requests.refresh_stall_cycles > 0
        # The deferred refresh still ran.
        assert _refresh_tuple(result.refresh) == _refresh_tuple(baseline.refresh)

    def test_write_never_defers(self):
        """The same collision with a write proceeds under the refresh."""
        geometry = BankGeometry(8, 8)
        fixed = _policy("fixed", geometry)
        policy = DARPPolicy(
            geometry.rows, fixed.tau_full, max_defer_cycles=1000
        )
        from repro.sim.schedule import first_deadlines, period_cycles

        periods = period_cycles(policy, TIMING)
        due = int(first_deadlines(periods)[1])
        trace = MemoryTrace(
            np.array([due + 1], dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([True]),
            name="write-collide",
        )
        darp = BankSimulator(policy, TIMING, geometry).run(
            trace=trace, duration_cycles=due + 2000
        )
        fixed = BankSimulator(_policy("fixed", geometry), TIMING, geometry).run(
            trace=trace, duration_cycles=due + 2000
        )
        assert (
            darp.requests.refresh_stall_cycles
            == fixed.requests.refresh_stall_cycles
            > 0
        )


# ------------------------------------------------------------------ #
# ChargeCache                                                         #
# ------------------------------------------------------------------ #


class TestChargeCache:
    def _policy(self, n_rows=16, discount=4, lifetime=1000, capacity=4):
        return ChargeCachePolicy(
            n_rows, 19, discount_cycles=discount,
            lifetime_cycles=lifetime, capacity=capacity,
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="discount_cycles"):
            self._policy(discount=-1)
        with pytest.raises(ValueError, match="lifetime_cycles"):
            self._policy(lifetime=0)
        with pytest.raises(ValueError, match="capacity"):
            self._policy(capacity=0)

    def test_first_access_misses_then_hits(self):
        policy = self._policy()
        assert policy.hit_rate == 0.0  # no lookups yet
        # Miss: row not tracked yet; latency unchanged, row inserted.
        assert policy.access_latency_cycles(3, 18, False, 0) == 18
        assert policy.valid.values.sum() == 1 and policy.valid.get(3) == 1
        # Hit within the lifetime: activation discounted.
        assert policy.access_latency_cycles(3, 18, False, 500) == 14
        assert policy.hits == 1 and policy.lookups == 2
        assert policy.hit_rate == 0.5

    def test_row_buffer_hit_never_discounted(self):
        policy = self._policy()
        policy.access_latency_cycles(3, 18, False, 0)
        # Row-buffer hits skip activation — nothing to discount.
        assert policy.access_latency_cycles(3, 11, True, 10) == 11

    def test_entry_expires_after_lifetime(self):
        policy = self._policy(lifetime=100)
        policy.access_latency_cycles(3, 18, False, 0)
        # At exactly the expiry cycle the entry is dead (and evicted).
        assert policy.access_latency_cycles(3, 18, False, 100) == 18
        assert policy.hits == 0

    def test_discount_floors_at_one_cycle(self):
        policy = self._policy(discount=50)
        policy.access_latency_cycles(3, 18, False, 0)
        assert policy.access_latency_cycles(3, 18, False, 10) == 1

    def test_capacity_lru_eviction_maintains_valid_bits(self):
        policy = self._policy(capacity=2)
        policy.access_latency_cycles(0, 18, False, 0)
        policy.access_latency_cycles(1, 18, False, 1)
        policy.access_latency_cycles(2, 18, False, 2)  # evicts row 0
        assert policy.valid.values.sum() == 2
        assert policy.valid.get(0) == 0
        assert policy.valid.get(1) == 1 and policy.valid.get(2) == 1
        # Evicted row misses again.
        assert policy.access_latency_cycles(0, 18, False, 3) == 18

    def test_reaccess_renews_entry_and_lru_position(self):
        policy = self._policy(capacity=2, lifetime=100)
        policy.access_latency_cycles(0, 18, False, 0)
        policy.access_latency_cycles(1, 18, False, 1)
        policy.access_latency_cycles(0, 18, False, 50)  # renew row 0
        policy.access_latency_cycles(2, 18, False, 60)  # should evict row 1
        assert policy.valid.get(0) == 1 and policy.valid.get(1) == 0
        # Renewed entry outlives its original expiry.
        assert policy.access_latency_cycles(0, 18, False, 120) == 14

    def test_reset_clears_everything(self):
        policy = self._policy()
        policy.access_latency_cycles(3, 18, False, 0)
        policy.reset()
        assert policy.valid.values.sum() == 0
        assert policy.lookups == 0 and policy.hits == 0
        assert policy.valid.get(3) == 0

    def test_engine_reduces_latency_not_refresh(self):
        geometry = BankGeometry(64, 8)
        duration = TIMING.cycles(400 * MS)
        # Re-referenced rows so the cache actually hits.
        rng = np.random.default_rng(11)
        n = 3000
        trace = MemoryTrace(
            np.sort(rng.integers(0, duration, n)).astype(np.int64),
            rng.integers(0, 8, n).astype(np.int64),
            np.zeros(n, dtype=bool),
            name="hot-rows",
        )
        fixed = BankSimulator(_policy("fixed", geometry), TIMING).run(
            trace=trace, duration_cycles=duration
        )
        policy = _policy("chargecache", geometry)
        cached = BankSimulator(policy, TIMING).run(
            trace=trace, duration_cycles=duration
        )
        assert _refresh_tuple(cached.refresh) == _refresh_tuple(fixed.refresh)
        assert (
            cached.requests.total_latency_cycles
            < fixed.requests.total_latency_cycles
        )
        assert policy.hits > 0


# ------------------------------------------------------------------ #
# AVATAR                                                              #
# ------------------------------------------------------------------ #


class TestAVATAR:
    def _clean_inputs(self, n_rows=32, factor=2.0):
        geometry = BankGeometry(n_rows, 8)
        profile, binning = _profile_binning(geometry)
        # Retention comfortably above every binned period: no VRT
        # degradation (min 0.8x) can push a row below its bin.
        clean = RetentionProfile(
            geometry,
            row_retention=np.asarray(binning.row_period, dtype=float) * factor,
        )
        return clean, binning

    def test_validation(self):
        profile, binning = self._clean_inputs()
        with pytest.raises(ValueError, match="windows"):
            AVATARPolicy(binning, 19, profile, windows=0)
        with pytest.raises(ValueError, match="upgrade_streak"):
            AVATARPolicy(binning, 19, profile, upgrade_streak=0)
        small = RetentionProfile(
            BankGeometry(4, 8), row_retention=np.full(4, 0.5)
        )
        with pytest.raises(ValueError, match="profile rows"):
            AVATARPolicy(binning, 19, small)

    def test_clean_rows_upgrade_to_their_bin(self):
        profile, binning = self._clean_inputs()
        policy = AVATARPolicy(binning, 19, profile)
        np.testing.assert_array_equal(
            policy.row_periods(), np.asarray(binning.row_period)
        )
        relaxed = int(np.count_nonzero(np.asarray(binning.row_period) > 0.064))
        assert policy.upgraded_rows == relaxed
        assert policy.pinned_rows == policy.n_rows - relaxed

    def test_failing_rows_pin_conservative(self):
        geometry = BankGeometry(32, 8)
        _, binning = _profile_binning(geometry)
        # Every VRT-affected row fails its bin: retention right at the
        # binned period, any degradation drops it below.
        marginal = RetentionProfile(
            geometry, row_retention=np.asarray(binning.row_period, dtype=float)
        )
        policy = AVATARPolicy(
            binning, 19, marginal,
            vrt=VRTParameters(affected_fraction=1.0, min_degradation=0.8),
        )
        assert policy.upgraded_rows == 0
        np.testing.assert_array_equal(
            policy.row_periods(),
            np.minimum(np.asarray(binning.row_period), 0.064),
        )

    def test_deterministic_per_seed(self):
        geometry = BankGeometry(64, 8)
        profile, binning = _profile_binning(geometry)
        a = AVATARPolicy(binning, 19, profile, seed=7)
        b = AVATARPolicy(binning, 19, profile, seed=7)
        np.testing.assert_array_equal(a.row_periods(), b.row_periods())
        assert a.upgraded_rows == b.upgraded_rows

    def test_streak_requires_consecutive_clean_windows(self):
        """upgrade_streak > windows can never upgrade anything."""
        profile, binning = self._clean_inputs()
        policy = AVATARPolicy(
            binning, 19, profile, windows=2, upgrade_streak=3
        )
        assert policy.upgraded_rows == 0
        np.testing.assert_array_equal(
            policy.row_periods(),
            np.minimum(np.asarray(binning.row_period), 0.064),
        )

    def test_never_relaxes_beyond_bin_or_conservative(self):
        geometry = BankGeometry(64, 8)
        profile, binning = _profile_binning(geometry)
        policy = AVATARPolicy(binning, 19, profile)
        periods = policy.row_periods()
        binned = np.asarray(binning.row_period)
        conservative = np.minimum(binned, 0.064)
        assert np.all((periods == conservative) | (periods == binned))
        # Scalar accessor agrees with the vector.
        assert policy.row_period(0) == periods[0]


# ------------------------------------------------------------------ #
# Differential: fused ≡ round walk ≡ engine for every new mechanism   #
# ------------------------------------------------------------------ #


class TestMechanismDifferential:
    @pytest.mark.parametrize("name", NEW_MECHANISMS)
    @pytest.mark.parametrize("with_trace", (False, True))
    def test_fused_round_walk_engine_identical(self, name, with_trace):
        """Refresh pricing is path-invariant despite the new seams."""
        geometry = BankGeometry(48, 8)
        duration = TIMING.cycles(600 * MS)
        trace = _trace(geometry, duration, n=800) if with_trace else None
        results = {}
        for label in ("evaluator", "round-walk", "engine"):
            policy = _policy(name, geometry)
            if label == "engine":
                stats = BankSimulator(policy, TIMING).run(
                    trace=trace, duration_cycles=duration
                ).refresh
            elif label == "round-walk":
                stats = round_walk(policy, TIMING, duration, trace)
            else:
                stats = RefreshOverheadEvaluator(policy, TIMING).evaluate(duration, trace)
            results[label] = _refresh_tuple(stats)
        assert results["evaluator"] == results["round-walk"] == results["engine"]
