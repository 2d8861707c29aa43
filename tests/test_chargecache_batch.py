"""ChargeCache's window hook ≡ its per-request state machine.

:meth:`~repro.controller.mechanisms.ChargeCachePolicy.access_latencies`
prices a whole window of requests in one in-order pass; the bank engine
calls it once per chain window.  The oracle is
:func:`tests.reference_bank.charge_cache_latency`, the lookup-then-insert
table stepped one request at a time.  The property feeds both a random
request stream — few rows so they repeat, gaps of 0–60 cycles against
lifetimes of 1–50 so cycles tie and entries are looked up before, at
and after their expiry, and mixed row-buffer hits — with the window
hook's calls split at random
boundaries, so table state must carry across calls.  After every call
the latencies, ``lookups``, ``hits``, the expiry map's items in order
and the valid bits must all match.  Since the engine calls only the
window hook, it refuses a policy customized through the one-request
``access_latency_cycles`` alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.mechanisms import ChargeCachePolicy
from repro.sim import BankSimulator, DRAMTiming
from repro.technology import DEFAULT_TECH
from tests.reference_bank import charge_cache_latency

N_ROWS = 12


def _state(policy):
    return (
        policy.lookups,
        policy.hits,
        list(policy._expiry.items()),
        policy.valid.values.tolist(),
    )


def _pair(capacity, lifetime, discount):
    return [
        ChargeCachePolicy(N_ROWS, 19, discount_cycles=discount,
                          lifetime_cycles=lifetime, capacity=capacity)
        for _ in range(2)
    ]


requests = st.lists(
    st.tuples(
        st.integers(0, N_ROWS - 1),                      # row
        st.one_of(st.just(0), st.integers(0, 60)),       # gap to previous arrival
        st.booleans(),                                   # row-buffer hit
        st.integers(1, 40),                              # base latency
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 8),
    lifetime=st.integers(1, 50),
    discount=st.integers(0, 45),
    stream=requests,
    cuts=st.lists(st.integers(0, 80), max_size=6),
)
def test_window_hook_matches_per_request_oracle(capacity, lifetime, discount, stream, cuts):
    batch, oracle = _pair(capacity, lifetime, discount)
    rows = np.array([request[0] for request in stream], dtype=np.int64)
    cycles = np.cumsum([request[1] for request in stream], dtype=np.int64)
    row_hit = np.array([request[2] for request in stream], dtype=bool)
    base = np.array([request[3] for request in stream], dtype=np.int64)
    bounds = sorted({0, len(stream), *(min(cut, len(stream)) for cut in cuts)})
    for first, stop in zip(bounds[:-1], bounds[1:]):
        window = slice(first, stop)
        got = batch.access_latencies(rows[window], base[window], row_hit[window],
                                     cycles[window])
        want = [
            charge_cache_latency(oracle, int(rows[i]), int(base[i]), bool(row_hit[i]),
                                 int(cycles[i]))
            for i in range(first, stop)
        ]
        assert got.dtype == np.int64
        assert got.tolist() == want, (first, stop)
        assert _state(batch) == _state(oracle), (first, stop)


def test_empty_window_changes_nothing():
    batch, oracle = _pair(capacity=2, lifetime=10, discount=4)
    batch.access_latency_cycles(3, 18, False, 0)
    charge_cache_latency(oracle, 3, 18, False, 0)
    empty = np.empty(0, dtype=np.int64)
    got = batch.access_latencies(empty, empty, np.empty(0, dtype=bool), empty)
    assert got.dtype == np.int64 and len(got) == 0
    assert _state(batch) == _state(oracle)


def test_out_of_range_row_raises_before_any_state_change():
    batch, _ = _pair(capacity=2, lifetime=10, discount=4)
    rows = np.array([1, N_ROWS], dtype=np.int64)
    with pytest.raises(IndexError):
        batch.access_latencies(rows, np.array([18, 18]), np.zeros(2, dtype=bool),
                               np.array([0, 1]))
    assert batch.lookups == 0 and batch.valid.values.sum() == 0


def test_engine_refuses_a_one_request_override():
    """The engine calls the window hook only, so a policy customized
    through the one-request view alone is refused, not ignored."""

    class OneRequest(ChargeCachePolicy):
        def access_latency_cycles(self, row, base_cycles, row_hit, cycle):
            return base_cycles

    policy = OneRequest(N_ROWS, 19, discount_cycles=4, lifetime_cycles=10)
    with pytest.raises(ValueError, match="overrides access_latency_cycles"):
        BankSimulator(policy, DRAMTiming.from_technology(DEFAULT_TECH))
