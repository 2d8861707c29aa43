"""Property test: the batch policy kernel ≡ the scalar policy path.

The vectorized fastpath rests on the contract that, for every policy,
driving the batch kernel (``decide`` / ``on_access_rows``) produces the
same decisions *and* the same counter state as driving the scalar
``refresh_row`` / ``on_access`` methods — for any interleaving of
accesses and refreshes.  This file pins that contract with hypothesis:
random banks, counter widths, MPRSF tables, and random rounds of
(access-set, refresh-set) events are replayed against two independently
constructed instances of the same policy, one driven scalar and one
driven batched, comparing every decision and the full ``rcount`` state
after every round.

Rows are unique within each round (the documented ``decide``
precondition — the deadline schedule gives a row at most one deadline
per round), and the scalar twin services its rows in a shuffled order
to prove cross-row order independence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller import (
    AVATARPolicy,
    ChargeCachePolicy,
    DARPPolicy,
    FGRPolicy,
    FixedRefreshPolicy,
    RAIDRPolicy,
    RefreshKind,
    VRLAccessPolicy,
    VRLPolicy,
)
from repro.retention import BinningResult
from repro.retention.profiler import RetentionProfile
from repro.technology import BankGeometry
from repro.units import MS

POLICY_NAMES = (
    "fixed",
    "raidr",
    "vrl",
    "vrl-access",
    "fgr-2x",
    "darp",
    "chargecache",
    "avatar",
)

AVAILABLE_PERIODS = (64 * MS, 128 * MS, 192 * MS, 256 * MS)


def _binning(rng, n_rows):
    bins = rng.integers(0, len(AVAILABLE_PERIODS), size=n_rows)
    periods = np.asarray(AVAILABLE_PERIODS, dtype=float)[bins]
    return BinningResult(periods=AVAILABLE_PERIODS, row_period=periods, row_bin=bins)


def _make_policy(name, rng, n_rows, nbits):
    tau_full, tau_partial = 19, 11
    if name == "fixed":
        return FixedRefreshPolicy(n_rows, tau_full)
    if name == "fgr-2x":
        return FGRPolicy(n_rows, tau_full, mode=2)
    if name == "darp":
        return DARPPolicy(n_rows, tau_full, max_defer_cycles=int(rng.integers(0, 5000)))
    if name == "chargecache":
        return ChargeCachePolicy(
            n_rows, tau_full, discount_cycles=4, lifetime_cycles=1000, capacity=8
        )
    binning = _binning(rng, n_rows)
    if name == "raidr":
        return RAIDRPolicy(binning, tau_full)
    if name == "avatar":
        # Retention comfortably above every bin: the profiling loop is
        # deterministic and the refresh-decision kernel is what's under
        # test here.
        profile = RetentionProfile(
            BankGeometry(n_rows, 8),
            row_retention=np.asarray(binning.row_period, dtype=float) * 2,
        )
        return AVATARPolicy(binning, tau_full, profile, seed=int(rng.integers(0, 100)))
    mprsf = rng.integers(0, (1 << nbits), size=n_rows)
    cls = VRLPolicy if name == "vrl" else VRLAccessPolicy
    return cls(binning, mprsf, tau_full, tau_partial, nbits=nbits)


def _rounds(rng, n_rows, n_rounds):
    """Random (access_rows, refresh_rows) rounds, rows unique per set."""
    rounds = []
    for _ in range(n_rounds):
        accessed = np.nonzero(rng.random(n_rows) < 0.4)[0]
        refreshed = np.nonzero(rng.random(n_rows) < 0.6)[0]
        rounds.append((accessed, refreshed))
    return rounds


def _scalar_round(policy, accessed, refreshed, rng):
    """Drive one round through the scalar path, in shuffled row order."""
    for row in rng.permutation(accessed):
        policy.on_access(int(row))
    kinds = np.empty(len(refreshed), dtype=np.uint8)
    latencies = np.empty(len(refreshed), dtype=np.int64)
    order = rng.permutation(len(refreshed))
    for position in order:
        command = policy.refresh_row(int(refreshed[position]))
        kinds[position] = 1 if command.kind is RefreshKind.PARTIAL else 0
        latencies[position] = command.latency_cycles
    return kinds, latencies


@settings(max_examples=60, deadline=None)
@given(
    policy_index=st.integers(0, len(POLICY_NAMES) - 1),
    n_rows=st.integers(1, 48),
    nbits=st.integers(1, 3),
    n_rounds=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_scalar_path(policy_index, n_rows, nbits, n_rounds, seed):
    """decide/on_access_rows ≡ refresh_row/on_access, state included."""
    name = POLICY_NAMES[policy_index]
    scalar = _make_policy(name, np.random.default_rng(seed), n_rows, nbits)
    batched = _make_policy(name, np.random.default_rng(seed), n_rows, nbits)
    event_rng = np.random.default_rng(seed + 1)
    order_rng = np.random.default_rng(seed + 2)

    for accessed, refreshed in _rounds(event_rng, n_rows, n_rounds):
        batched.on_access_rows(accessed)
        batch_kinds, batch_latencies = batched.decide(refreshed)
        scalar_kinds, scalar_latencies = _scalar_round(
            scalar, accessed, refreshed, order_rng
        )
        np.testing.assert_array_equal(batch_kinds, scalar_kinds)
        np.testing.assert_array_equal(batch_latencies, scalar_latencies)
        if hasattr(scalar, "rcount"):
            np.testing.assert_array_equal(
                batched.rcount.values, scalar.rcount.values
            )
    # Period vectors are part of the kernel contract too.
    np.testing.assert_array_equal(batched.row_periods(), scalar.row_periods())
    assert batched.row_periods().dtype == np.dtype(float)


@settings(max_examples=30, deadline=None)
@given(
    n_rows=st.integers(1, 32),
    nbits=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_reset_equivalence(n_rows, nbits, seed):
    """reset() returns both surfaces to the same (initial) state."""
    rng = np.random.default_rng(seed)
    policy = _make_policy("vrl-access", rng, n_rows, nbits)
    rounds = _rounds(np.random.default_rng(seed + 1), n_rows, 4)
    for accessed, refreshed in rounds:
        policy.on_access_rows(accessed)
        policy.decide(refreshed)
    policy.reset()
    np.testing.assert_array_equal(policy.rcount.values, np.zeros(n_rows, dtype=np.int64))
    fresh = _make_policy("vrl-access", np.random.default_rng(seed), n_rows, nbits)
    for accessed, refreshed in rounds:
        policy.on_access_rows(accessed)
        fresh.on_access_rows(accessed)
        np.testing.assert_array_equal(policy.decide(refreshed)[0], fresh.decide(refreshed)[0])


class TestKernelValidation:
    """Shape/bounds validation of the batch entry points."""

    def test_decide_rejects_out_of_range(self):
        policy = FixedRefreshPolicy(n_rows=4, tau_full=19)
        with pytest.raises(IndexError):
            policy.decide(np.array([0, 4]))
        with pytest.raises(IndexError):
            policy.on_access_rows(np.array([-1]))

    def test_decide_rejects_non_1d(self):
        policy = FixedRefreshPolicy(n_rows=4, tau_full=19)
        with pytest.raises(ValueError, match="1-D"):
            policy.decide(np.zeros((2, 2), dtype=np.int64))

    def test_empty_batch_is_noop(self):
        policy = FixedRefreshPolicy(n_rows=4, tau_full=19)
        kinds, latencies = policy.decide(np.empty(0, dtype=np.int64))
        assert len(kinds) == 0 and len(latencies) == 0
        policy.on_access_rows(np.empty(0, dtype=np.int64))

    def test_scalar_only_subclass_is_refused(self):
        """A subclass overriding only refresh_row would not be priced as
        it decides, so the class is refused when it is created."""
        with pytest.raises(TypeError, match="AlwaysPartial overrides refresh_row"):
            class AlwaysPartial(VRLPolicy):
                def refresh_row(self, row):
                    raise AssertionError("never called")
