"""Query schema: validation and canonical keys.

The schema is the contract between the sweep client and the
drivers: a typed ``Query`` must (1) reject malformed requests loudly
and (2) hash to exactly the cache key of the equivalent hand-built
runner cell — one keyspace for drivers, clients, and warm caches.
"""

import hashlib
import typing
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import Cell, cache_key, tech_params
from repro.service import KIND_PARAMS, LocalClient, Query, run_experiment
from repro.technology import DEFAULT_TECH, TechnologyParams

TECH = tech_params(DEFAULT_TECH)


def _query(**overrides):
    base = dict(
        kind="refresh-overhead",
        tech=DEFAULT_TECH,
        rows=64,
        cols=8,
        policy="vrl",
        benchmark="canneal",
        seed=11,
        duration_seconds=0.2,
    )
    base.update(overrides)
    return Query(**base)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            _query(kind="warp-drive")

    def test_tech_params_normalized_to_dict(self):
        assert dict(_query().tech) == TECH

    def test_tech_must_be_mapping(self):
        with pytest.raises(TypeError, match="tech must be"):
            _query(tech="ddr3")

    @pytest.mark.parametrize(
        "kind, missing",
        [
            ("refresh-overhead", "policy"),
            ("engine-run", "policy"),
            ("rank-mode", "n_banks, mode"),
            ("baseline-mechanism", "mechanism"),
            ("temperature-point", "temperature"),
        ],
    )
    def test_required_fields_enforced(self, kind, missing):
        with pytest.raises(ValueError, match=missing.split(",")[0]):
            Query(kind=kind, tech=DEFAULT_TECH, rows=64, cols=8)

    def test_default_labels_match_driver_convention(self):
        assert _query().label == "vrl/canneal"
        assert _query(benchmark=None).label == "vrl/refresh-only"
        rank = Query(kind="rank-mode", tech=DEFAULT_TECH, rows=64, cols=8,
                     n_banks=4, mode="raidr")
        assert rank.label == "rank/raidr"
        temp = Query(kind="temperature-point", tech=DEFAULT_TECH, rows=64,
                     cols=8, temperature=55.0)
        assert temp.label == "temp/55C"


class TestCanonicalKeys:
    def test_key_equals_hand_built_cell_key(self):
        query = _query()
        params = {
            "tech": TECH,
            "rows": 64,
            "cols": 8,
            "policy": "vrl",
            "nbits": 2,
            "benchmark": "canneal",
            "seed": 11,
            "duration_seconds": 0.2,
        }
        assert query.key() == cache_key("refresh-overhead", params)

    def test_params_cover_exactly_the_kind_table(self):
        for kind in KIND_PARAMS:
            query = Query(
                kind=kind, tech=DEFAULT_TECH, rows=64, cols=8, policy="vrl",
                benchmark=None, n_banks=4, mode="vrl", mechanism="raidr",
                temperature=55.0, start_lo=0.75, start_hi=0.95, n_points=4,
            )
            assert tuple(query.params()) == KIND_PARAMS[kind]

    def test_numeric_fields_canonicalized(self):
        # A float-typed row count must key identically to the int form.
        assert _query(rows=64.0).key() == _query(rows=64).key()
        assert _query(seed=11.0).key() == _query(seed=11).key()

    def test_any_field_change_changes_key(self):
        base = _query().key()
        for variant in (
            _query(seed=12), _query(duration_seconds=0.3), _query(nbits=3),
            _query(policy="raidr"), _query(benchmark=None), _query(rows=128),
        ):
            assert variant.key() != base

    def test_label_does_not_affect_key(self):
        assert _query(label="a").key() == _query(label="b").key()

    def test_to_cell_carries_kind_params_and_label(self):
        query = _query()
        cell = query.to_cell()
        assert isinstance(cell, Cell)
        assert cell.kind == query.kind
        assert cell.label == query.label
        assert cell.params == query.params()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _random_tech(draw):
    """A ``TechnologyParams`` with every field drawn at random."""
    hints = typing.get_type_hints(TechnologyParams)
    values = {
        spec.name: draw(st.integers() if hints[spec.name] is int else _FINITE)
        for spec in fields(TechnologyParams)
    }
    return TechnologyParams(**values)


class TestTechProjection:
    """``tech_params`` is a shallow projection equal to ``asdict``."""

    def test_every_field_is_int_or_float(self):
        # A nested (mutable) field would make the shallow projection
        # share state with the params object, and change what ``asdict``
        # returns; it must fail here first.
        hints = typing.get_type_hints(TechnologyParams)
        for spec in fields(TechnologyParams):
            assert hints[spec.name] in (int, float), spec.name

    def test_default_tech_matches_asdict(self):
        projected = tech_params(DEFAULT_TECH)
        assert projected == asdict(DEFAULT_TECH)
        assert list(projected) == list(asdict(DEFAULT_TECH))

    @settings(max_examples=60, deadline=None)
    @given(_random_tech())
    def test_random_tech_matches_asdict(self, tech):
        projected = tech_params(tech)
        assert projected == asdict(tech)
        assert list(projected) == list(asdict(tech))
        assert [type(v) for v in projected.values()] == [
            type(v) for v in asdict(tech).values()
        ]
        query = _query(tech=tech)
        assert query.tech == asdict(tech)
        assert query.key() == cache_key(
            "refresh-overhead", {**query.params(), "tech": asdict(tech)}
        )


class _Captured(Exception):
    """Stops a driver at its sweep, once its queries are recorded."""


class _KeyRecorder(LocalClient):
    """A client that records each sweep's query keys and runs nothing."""

    def __init__(self):
        super().__init__()
        self.keys: dict[str, list[str]] = {}

    def sweep(self, queries, experiment=""):
        self.keys[experiment] = [query.key() for query in queries]
        raise _Captured


class TestPinnedWarmKeys:
    """The cache keys of the five warm sweep verbs at seed 2018.

    A changed digest means every existing user cache entry of these
    verbs turns into a miss.  Only a deliberate change (a package or
    result-schema version bump) may move it.
    """

    VERBS = ("fig4", "baselines", "rank", "temperature", "calibrate")
    DIGEST = "959265175dedeab7700340c13fb784dee2bd8582cdd457d173e72e29b605f9a9"
    FIG4_FIRST = "4551a750555ddedceaf2b70da9db643bdb231129a6b2794671a8d8fe9b7da9f4"

    def test_keys_are_pinned(self):
        client = _KeyRecorder()
        for verb in self.VERBS:
            with pytest.raises(_Captured):
                run_experiment(verb, client=client, seed=2018)
        assert {verb: len(keys) for verb, keys in client.keys.items()} == {
            "fig4": 39, "baselines": 6, "rank": 5, "temperature": 5,
            "calibrate": 3,
        }
        every = sorted(key for keys in client.keys.values() for key in keys)
        assert hashlib.sha256("\n".join(every).encode()).hexdigest() == self.DIGEST
        assert client.keys["fig4"][0] == self.FIG4_FIRST
