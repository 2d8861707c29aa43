"""Unit tests for the workload catalog and trace generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import DRAMTiming
from repro.technology import BankGeometry, DEFAULT_GEOMETRY, DEFAULT_TECH
from repro.workloads import (
    PARSEC_WORKLOADS,
    TraceGenerator,
    WorkloadSpec,
)
from repro.workloads.generator import _SAMPLE_BLOCK, _GuideTable
from tests.reference_trace import generate_suite

TIMING = DRAMTiming.from_technology(DEFAULT_TECH)

#: SHA-256 over the bytes of ``cycles`` (int64), ``rows`` (int64) and
#: ``is_write`` (bool) of every 0.05 s suite trace, recorded while the
#: generator still drew Zipf ranks with ``Generator.choice``.
TRACE_DIGESTS = {
    ("blackscholes", 2018): "6bbb90f4fbc0a224be8137288094cc5e00b7dad8d073303aca92539e5de5048c",
    ("bodytrack", 2018): "b0c61a23835a4bd078923920a9210cb6e307f7ac17dad4bd58cde9b11cf00aa1",
    ("canneal", 2018): "2e191b09f94eb14b4bec3c20ebf211a0a2483ac28cba132d2967ad2fe34fed35",
    ("dedup", 2018): "e6b567e5c7c8df6db0b0faab6176cfd8c650ff0b7ecdc0f460ab8705cddf4be8",
    ("facesim", 2018): "b5c22ce04887437178b41147e4998fbc4cf9f4d674396370f4f15f407e24b81c",
    ("ferret", 2018): "099fbba34ef63f629f94aa1efc56d45c3c82a2aca87dd50c9b9cc353d6684311",
    ("fluidanimate", 2018): "fed43d5e1620dedc4e81f0ea4478ac31ebb0db19cb577265aea84dbe68ed4a71",
    ("freqmine", 2018): "3d409c3fa43afc56b52c3517c4c0b76cd01efb734402ac17e5e4de670a3dd885",
    ("streamcluster", 2018): "ab1fd392395e374aa5e22d4460f1f8862970b076eb07ef8defad3aed665e16d9",
    ("swaptions", 2018): "5f219580f11c8ea93397b3c4c58d77c4cee1a4edb3418e19836b25fa85528e59",
    ("vips", 2018): "a17c20155987122b89f7bc6301249b216dedf7d9dac469c3f098b4cf75870383",
    ("x264", 2018): "6b9afbcea39827d8439fb23a7352dbe0797163caed8323f59a9bed14255a725d",
    ("bgsave", 2018): "b4dc37832dc7f8bbca04b9ec61f219d0a14c2fb2b87e421940b58e38905bc29a",
    ("blackscholes", 7): "e41728c04ad35dbf103e78bb5ca641922c2b1a55b22af4dceef2bb2a958ef6e5",
    ("bodytrack", 7): "63ae5370d655a308ab5596b9330a43eaf06c9aa89514ce9b2b08a029f91dfbf1",
    ("canneal", 7): "23a9929d347c22f587b9b4e65f910594f6d6cbb6fcf9d4435a450c1ffa9864f2",
    ("dedup", 7): "88704bb5633e8dfa57872266a3e924a0930781a0bb5d8ec8709784a6642b85f2",
    ("facesim", 7): "084977a42bf17f87d36a82b59e4da12ad80745a583c9e31a9846a06d822929ab",
    ("ferret", 7): "6db7ce906375c2092209236d87ebe8013d2a7b35db0f9d698641e37c0484fe06",
    ("fluidanimate", 7): "299fbe0e92dbf4c2a7abbeda4bf79c39d84caa0eaaa830d096343748322fa888",
    ("freqmine", 7): "ac89bda9e119218cc01e3d22065055410485346f81e779c5a86fc7f6bfb4dde9",
    ("streamcluster", 7): "30afe978a52030aa690406ef62871c2e8eb7fad5793ea1101bab435812a2297b",
    ("swaptions", 7): "268fbe4a276f65740c3874aa61b0288a232b5b33cb843a49c36c79695af2a051",
    ("vips", 7): "cae5a2ff68675088d67c4ea761d10e5f21169c5ad9907387517a3d0b5bc1d098",
    ("x264", 7): "723f0c6b21c5b90cf5ad89a178b941b9e086ddddcc264de4d514f0518bd3bab4",
    ("bgsave", 7): "4461e46e0c5ca35f01e1089ffc1a2638290464e47ec4562d183aba455624ff09",
}


def _zipf(footprint, alpha):
    """Zipf(alpha) probabilities over ``footprint`` ranks, as the generator builds them."""
    weights = np.arange(1, footprint + 1, dtype=float) ** (-alpha)
    return weights / weights.sum()


class TestCatalog:
    def test_thirteen_benchmarks(self):
        """PARSEC-3.0 subset plus bgsave, as in Fig. 4."""
        assert len(PARSEC_WORKLOADS) == 13
        assert "bgsave" in PARSEC_WORKLOADS
        assert "canneal" in PARSEC_WORKLOADS

    def test_names_keyed_consistently(self):
        for name, spec in PARSEC_WORKLOADS.items():
            assert spec.name == name

    def test_bgsave_is_streaming_write_heavy(self):
        spec = PARSEC_WORKLOADS["bgsave"]
        assert spec.streaming_fraction >= 0.5
        assert spec.write_fraction >= 0.5

    def test_swaptions_is_small_footprint(self):
        assert PARSEC_WORKLOADS["swaptions"].footprint_rows < 1000

    def test_footprints_within_bank(self):
        for spec in PARSEC_WORKLOADS.values():
            assert spec.footprint_rows <= DEFAULT_GEOMETRY.rows


class TestSpecValidation:
    def _spec(self, **overrides):
        base = dict(
            name="x", footprint_rows=100, zipf_alpha=0.5,
            requests_per_second=1e5, write_fraction=0.3,
            streaming_fraction=0.2, description="test",
        )
        base.update(overrides)
        return WorkloadSpec(**base)

    def test_valid(self):
        self._spec()

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("footprint_rows", 0, "footprint"),
            ("zipf_alpha", -0.1, "zipf"),
            ("requests_per_second", 0.0, "intensity"),
            ("write_fraction", 1.5, "write_fraction"),
            ("streaming_fraction", -0.2, "streaming_fraction"),
        ],
    )
    def test_rejects(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            self._spec(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field",
        ["zipf_alpha", "requests_per_second", "write_fraction", "streaming_fraction"],
    )
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            self._spec(**{field: value})


class TestGenerator:
    @pytest.fixture
    def spec(self):
        return PARSEC_WORKLOADS["blackscholes"]

    def test_deterministic(self, spec):
        a = TraceGenerator(spec, TIMING, seed=1).generate(0.05)
        b = TraceGenerator(spec, TIMING, seed=1).generate(0.05)
        assert np.array_equal(a.cycles, b.cycles)
        assert np.array_equal(a.rows, b.rows)

    def test_seed_changes_trace(self, spec):
        a = TraceGenerator(spec, TIMING, seed=1).generate(0.05)
        b = TraceGenerator(spec, TIMING, seed=2).generate(0.05)
        assert not np.array_equal(a.rows, b.rows)

    def test_request_count_matches_intensity(self, spec):
        duration = 0.1
        trace = TraceGenerator(spec, TIMING, seed=1).generate(duration)
        assert len(trace) == int(spec.requests_per_second * duration)

    def test_rows_within_footprint_window(self, spec):
        gen = TraceGenerator(spec, TIMING, seed=1)
        trace = gen.generate(0.05)
        assert trace.rows.min() >= gen.base_row
        assert trace.rows.max() < gen.base_row + gen.footprint

    def test_rows_within_bank(self, spec):
        trace = TraceGenerator(spec, TIMING, seed=1).generate(0.05)
        assert trace.rows.max() < DEFAULT_GEOMETRY.rows

    def test_cycles_within_duration(self, spec):
        duration = 0.05
        trace = TraceGenerator(spec, TIMING, seed=1).generate(duration)
        assert trace.cycles.max() < TIMING.cycles(duration)
        assert (np.diff(trace.cycles) >= 0).all()

    def test_write_fraction_approximate(self, spec):
        trace = TraceGenerator(spec, TIMING, seed=1).generate(0.2)
        measured = trace.n_writes / len(trace)
        assert measured == pytest.approx(spec.write_fraction, abs=0.05)

    def test_zipf_concentrates_accesses(self):
        skewed = PARSEC_WORKLOADS["swaptions"]  # alpha = 1.0
        trace = TraceGenerator(skewed, TIMING, seed=1).generate(0.3)
        _, counts = np.unique(trace.rows, return_counts=True)
        counts = np.sort(counts)[::-1]
        # Top 10% of rows take far more than 10% of accesses.
        top = counts[: max(1, len(counts) // 10)].sum()
        assert top / counts.sum() > 0.25

    def test_footprint_clamped_to_small_bank(self, spec):
        small = BankGeometry(64, 8)
        gen = TraceGenerator(spec, TIMING, geometry=small, seed=1)
        trace = gen.generate(0.02)
        assert trace.rows.max() < 64

    def test_rejects_bad_duration(self, spec):
        with pytest.raises(ValueError, match="duration"):
            TraceGenerator(spec, TIMING, seed=1).generate(0.0)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_duration(self, spec, duration):
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            TraceGenerator(spec, TIMING, seed=1).generate(duration)

    def test_no_streaming_and_all_streaming(self):
        """Both row sources may be empty: the scan and the Zipf draw."""
        for fraction in (0.0, 1.0):
            spec = WorkloadSpec("edge", 37, 0.8, 1e5, 0.3, fraction, "test")
            gen = TraceGenerator(spec, TIMING, seed=3)
            trace = gen.generate(0.01)
            local = trace.rows - gen.base_row
            assert ((local >= 0) & (local < 37)).all()
            if fraction == 1.0:
                # One wrap-around scan: consecutive rows, modulo the footprint.
                assert (np.diff(local) % 37 == 1).all()


class TestTraceDigests:
    """Every suite trace is byte-identical to the ``Generator.choice`` era."""

    @pytest.mark.parametrize("seed", [2018, 7])
    def test_suite_traces_match_recorded_digests(self, seed):
        for name, trace in generate_suite(TIMING, 0.05, seed=seed).items():
            assert trace.cycles.dtype == np.int64
            assert trace.rows.dtype == np.int64
            assert trace.is_write.dtype == bool
            digest = hashlib.sha256()
            for array in (trace.cycles, trace.rows, trace.is_write):
                digest.update(array.tobytes())
            assert digest.hexdigest() == TRACE_DIGESTS[(name, seed)], name


class _FixedUniforms:
    """An rng stand-in whose ``random(size)`` returns preset uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)

    def random(self, size):
        assert size == len(self.uniforms)
        return self.uniforms.copy()


def _sample_categorical(
    rng: np.random.Generator, probabilities: np.ndarray, size: int
) -> np.ndarray:
    """``size`` indices drawn from ``probabilities``, as ``choice`` draws them.

    ``Generator.choice(len(p), size, p=p)`` draws ``u = rng.random(size)``
    and binary-searches the CDF for each.  This returns the same indices
    from the same uniforms, drawn in blocks of ``_SAMPLE_BLOCK`` (a
    chunked ``random`` fill is the same stream with the same end state),
    and resolves them through ``_GuideTable``, the sampler
    :meth:`TraceGenerator.generate` uses for its Zipf ranks.
    """
    table = _GuideTable(probabilities)
    indices = np.empty(size, dtype=np.int64)
    for start in range(0, size, _SAMPLE_BLOCK):
        block = indices[start:start + _SAMPLE_BLOCK]
        table.resolve(rng.random(len(block)), out=block)
    return indices


class TestCategoricalSampler:
    """``_GuideTable`` ≡ ``Generator.choice(len(p), n, p=p)``, through
    :func:`_sample_categorical`."""

    @settings(max_examples=80, deadline=None)
    @given(
        footprint=st.integers(1, 65_536),
        alpha=st.floats(0.0, 2.0),
        zero_share=st.sampled_from([0.0, 0.3, 0.95]),
        size=st.one_of(st.integers(0, 2_000), st.integers(65_000, 140_000)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_generator_choice(self, footprint, alpha, zero_share, size, seed):
        p = _zipf(footprint, alpha)
        mask_rng = np.random.default_rng(seed)
        p[mask_rng.random(footprint) < zero_share] = 0.0
        if not p.any():
            p[mask_rng.integers(footprint)] = 1.0
        p /= p.sum()
        want_rng = np.random.default_rng(seed)
        got_rng = np.random.default_rng(seed)
        want = want_rng.choice(footprint, size, p=p)
        got = _sample_categorical(got_rng, p, size)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("footprint", [1, 3, 4, 7600, 65_536])
    def test_uniforms_on_bucket_edges(self, footprint):
        """Uniforms exactly on (and one ulp around) guide-bucket edges and
        on CDF values resolve as the binary search does."""
        p = np.full(footprint, 1.0 / footprint)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        n_buckets = 1 << (8 * footprint - 1).bit_length()
        edges = np.arange(0, n_buckets, max(1, n_buckets // 512)) / n_buckets
        points = np.concatenate([edges, cdf[:-1][:512]])
        uniforms = np.concatenate(
            [points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)]
        )
        uniforms = uniforms[(uniforms >= 0.0) & (uniforms < 1.0)]
        got = _sample_categorical(_FixedUniforms(uniforms), p, len(uniforms))
        np.testing.assert_array_equal(got, np.searchsorted(cdf, uniforms, "right"))

    def test_crowded_buckets_fall_back_exactly(self):
        """A tail finer than the guide table (many CDF boundaries in one
        bucket) still matches ``choice``."""
        p = _zipf(4096, 2.0)
        want_rng, got_rng = np.random.default_rng(11), np.random.default_rng(11)
        np.testing.assert_array_equal(
            _sample_categorical(got_rng, p, 200_000),
            want_rng.choice(4096, 200_000, p=p),
        )


class TestSuite:
    def test_full_suite(self):
        traces = generate_suite(TIMING, 0.02)
        assert set(traces) == set(PARSEC_WORKLOADS)
        for name, trace in traces.items():
            assert trace.name == name
            assert len(trace) > 0

    def test_subset(self):
        traces = generate_suite(TIMING, 0.02, names=["canneal", "bgsave"])
        assert set(traces) == {"canneal", "bgsave"}

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown workload"):
            generate_suite(TIMING, 0.02, names=["nope"])

    def test_distinct_benchmarks_have_distinct_footprints(self):
        traces = generate_suite(TIMING, 0.05, names=["swaptions", "canneal"])
        assert traces["swaptions"].footprint_rows() < traces["canneal"].footprint_rows()
