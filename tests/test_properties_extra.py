"""Second round of property-based tests (hypothesis) on newer modules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.retention import RetentionProfiler, TemperatureModel, VRTModel, VRTParameters
from repro.sim import MemoryTrace, predicted_full_fraction
from repro.sim.timeline import union_length
from repro.technology import BankGeometry, DEFAULT_TECH
from tests.reference_trace import merge_traces

interval = st.tuples(
    st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=200)
).map(lambda p: (p[0], p[0] + p[1]))


def _union(intervals, horizon):
    starts = np.array([s for s, _ in intervals], dtype=np.int64)
    ends = np.array([e for _, e in intervals], dtype=np.int64)
    return union_length(starts, ends, horizon)


class TestUnionLengthProperties:
    @given(intervals=st.lists(interval, max_size=30))
    @settings(max_examples=60)
    def test_matches_brute_force(self, intervals):
        horizon = 800
        covered = np.zeros(horizon, dtype=bool)
        for start, end in intervals:
            covered[start:min(end, horizon)] = True
        assert _union(intervals, horizon) == int(covered.sum())

    @given(intervals=st.lists(interval, max_size=20))
    @settings(max_examples=40)
    def test_bounded_by_sum_and_horizon(self, intervals):
        horizon = 800
        total = _union(intervals, horizon)
        assert 0 <= total <= min(horizon, sum(e - s for s, e in intervals))


class TestTemperatureProperties:
    @given(
        t1=st.floats(min_value=-20, max_value=120),
        t2=st.floats(min_value=-20, max_value=120),
    )
    def test_hotter_never_retains_longer(self, t1, t2):
        model = TemperatureModel()
        lo, hi = sorted((t1, t2))
        assert model.retention_factor(hi) <= model.retention_factor(lo)

    @given(
        temperature=st.floats(min_value=0, max_value=100),
        halving=st.floats(min_value=5, max_value=20),
    )
    def test_composition(self, temperature, halving):
        """Scaling to T then back to reference is the identity."""
        model = TemperatureModel(halving=halving)
        factor = model.retention_factor(temperature)
        inverse = 2.0 ** ((temperature - model.reference) / halving)
        assert factor * inverse == pytest.approx(1.0)


class TestVRTProperties:
    @given(
        affected=st.floats(min_value=0.0, max_value=1.0),
        degradation=st.floats(min_value=0.3, max_value=1.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_degradation_bounded(self, affected, degradation, seed):
        profile = RetentionProfiler(seed=13).profile(BankGeometry(64, 4))
        model = VRTModel(
            VRTParameters(affected_fraction=affected, min_degradation=degradation),
            seed=seed,
        )
        degraded = model.degraded_retention(profile)
        assert (degraded <= profile.row_retention + 1e-15).all()
        assert (degraded >= degradation * profile.row_retention - 1e-15).all()


class TestPredictorProperties:
    @given(
        m=st.integers(min_value=0, max_value=7),
        coverage=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_full_fraction_bounded(self, m, coverage):
        f = predicted_full_fraction(m, coverage)
        assert 0.0 <= f <= 1.0
        if m >= 1:
            assert f <= 1 / (m + 1) + 1e-9  # coverage only ever helps


class TestMergeProperties:
    traces = st.lists(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=63),
            ),
            max_size=40,
        ),
        min_size=1,
        max_size=4,
    )

    @given(specs=traces)
    @settings(max_examples=40)
    def test_merge_preserves_requests_and_order(self, specs):
        inputs = []
        for spec in specs:
            spec.sort()
            cycles = np.array([c for c, _ in spec], dtype=np.int64)
            rows = np.array([r for _, r in spec], dtype=np.int64)
            inputs.append(
                MemoryTrace(cycles, rows, np.zeros(len(spec), dtype=bool))
            )
        merged = merge_traces(inputs)
        assert len(merged) == sum(len(t) for t in inputs)
        if len(merged) > 1:
            assert (np.diff(merged.cycles) >= 0).all()
