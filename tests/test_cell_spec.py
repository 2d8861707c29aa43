"""Cell spec: validation, canonical keys, and the typed-query oracle.

``Cell.of`` is the contract between the sweep drivers and the runner:
it must (1) reject malformed requests loudly, naming the kind and the
field, and (2) project a valid request onto exactly the params, label
and cache key that the retired typed ``Query`` built for it
(``tests/reference_query.py``), so existing user caches stay hits.
"""

import hashlib
import math
import typing
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import CELL_KINDS, Cell, ExperimentRunner, cache_key, tech_params
from repro.service import run_experiment
from repro.technology import DEFAULT_TECH, TechnologyParams
from tests.reference_query import KIND_PARAMS, Query

TECH = tech_params(DEFAULT_TECH)

BASE = dict(
    tech=DEFAULT_TECH,
    rows=64,
    cols=8,
    policy="vrl",
    benchmark="canneal",
    seed=11,
    duration_seconds=0.2,
)


def _cell(**overrides):
    return Cell.of("refresh-overhead", **{**BASE, **overrides})


def _query(**overrides):
    return Query(kind="refresh-overhead", **{**BASE, **overrides})


def _key(cell):
    return cache_key(cell.kind, cell.params)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown cell kind 'warp-drive'"):
            Cell.of("warp-drive", tech=DEFAULT_TECH, rows=64, cols=8)

    def test_tech_params_normalized_to_dict(self):
        assert _cell().params["tech"] == TECH
        assert type(_cell().params["tech"]) is dict
        assert _cell(tech=TECH).params == _cell().params

    def test_tech_must_be_mapping(self):
        with pytest.raises(TypeError, match="tech must be"):
            _cell(tech="ddr3")

    @pytest.mark.parametrize(
        "kind, missing",
        [
            ("refresh-overhead", "policy"),
            ("engine-run", "policy"),
            ("rank-mode", "n_banks, mode"),
            ("baseline-mechanism", "mechanism"),
            ("mechanism-matrix", "mechanism, temperature"),
            ("temperature-point", "temperature"),
            ("calibration-sweep", "start_lo, start_hi, n_points"),
        ],
    )
    def test_required_fields_enforced(self, kind, missing):
        with pytest.raises(ValueError, match=f"'{kind}' requires {missing}$"):
            Cell.of(kind, tech=DEFAULT_TECH, rows=64, cols=8)

    def test_default_labels_match_driver_convention(self):
        assert _cell().label == "vrl/canneal"
        assert _cell(benchmark=None).label == "vrl/refresh-only"
        rank = Cell.of("rank-mode", tech=DEFAULT_TECH, rows=64, cols=8,
                       n_banks=4, mode="raidr")
        assert rank.label == "rank/raidr"
        temp = Cell.of("temperature-point", tech=DEFAULT_TECH, rows=64,
                       cols=8, temperature=55.0)
        assert temp.label == "temp/55C"

    def test_explicit_label_wins(self):
        assert _cell(label="mine").label == "mine"


class TestAliasingRejected:
    """What the typed ``Query`` let through, and ``Cell.of`` refuses."""

    @pytest.mark.parametrize(
        "field, bad, alias", [("rows", 64.7, 64), ("nbits", 2.9, 2), ("seed", True, 1)]
    )
    def test_query_aliased_a_valid_request(self, field, bad, alias):
        # The oracle truncates through int(): another request's key.
        assert _query(**{field: bad}).key() == _query(**{field: alias}).key()

    @pytest.mark.parametrize(
        "field, bad", [("rows", 64.7), ("nbits", 2.9), ("seed", True), ("cols", 8.0),
                       ("seed", "11"), ("nbits", None)]
    )
    def test_non_integers_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"'refresh-overhead', field '{field}'"):
            _cell(**{field: bad})

    def test_numpy_ints_accepted(self):
        cell = _cell(rows=np.int64(64), nbits=np.int32(2), seed=np.uint16(11))
        assert cell.params == _cell().params
        assert {type(cell.params[name]) for name in ("rows", "nbits", "seed")} == {int}
        assert _key(cell) == _key(_cell())

    def test_query_nan_failed_only_when_keyed(self):
        query = Query(kind="temperature-point", tech=DEFAULT_TECH, rows=64,
                      cols=8, temperature=math.nan)
        with pytest.raises(ValueError, match="not JSON compliant"):
            query.key()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                     True, "45"])
    @pytest.mark.parametrize(
        "kind, field",
        [
            ("temperature-point", "temperature"),
            ("mechanism-matrix", "duration_seconds"),
            ("calibration-sweep", "start_lo"),
            ("calibration-sweep", "restore_fraction"),
        ],
    )
    def test_non_finite_floats_rejected(self, kind, field, bad):
        values = dict(
            tech=DEFAULT_TECH, rows=64, cols=8, mechanism="vrl", temperature=45.0,
            start_lo=0.7, start_hi=0.9, n_points=4,
        )
        with pytest.raises(ValueError, match=f"'{kind}', field '{field}'"):
            Cell.of(kind, **{**values, field: bad})


class TestCanonicalKeys:
    def test_key_equals_hand_built_cell_key(self):
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
        assert _key(_cell()) == cache_key("refresh-overhead", params)

    def test_params_follow_the_kind_table(self):
        for kind, spec in CELL_KINDS.items():
            cell = Cell.of(
                kind, tech=DEFAULT_TECH, rows=64, cols=8, policy="vrl",
                benchmark=None, n_banks=4, mode="vrl", mechanism="raidr",
                temperature=55.0, start_lo=0.75, start_hi=0.95, n_points=4,
            )
            assert tuple(cell.params) == tuple(name for name, _ in spec.params)

    def test_policy_kinds_share_one_params_tuple(self):
        assert CELL_KINDS["refresh-overhead"].params is CELL_KINDS["engine-run"].params

    def test_float_fields_canonicalized(self):
        # An int-typed float field keys identically to the float form.
        assert _key(_cell(duration_seconds=1)) == _key(_cell(duration_seconds=1.0))
        assert type(_cell(duration_seconds=1).params["duration_seconds"]) is float

    def test_any_field_change_changes_key(self):
        base = _key(_cell())
        for variant in (
            _cell(seed=12), _cell(duration_seconds=0.3), _cell(nbits=3),
            _cell(policy="raidr"), _cell(benchmark=None), _cell(rows=128),
        ):
            assert _key(variant) != base

    def test_label_does_not_affect_key(self):
        assert _key(_cell(label="a")) == _key(_cell(label="b"))


# --------------------------------------------------------------------- #
# The typed-query oracle                                                #
# --------------------------------------------------------------------- #

_INTS = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.integers(min_value=-(2**31), max_value=2**31).map(np.int64),
)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(min_value=-10**6, max_value=10**6),
)
_NAMES = st.text(max_size=12)


@st.composite
def _request(draw):
    """A kind and a valid field set for it (every required field given)."""
    kind = draw(st.sampled_from(sorted(CELL_KINDS)))
    values = draw(
        st.fixed_dictionaries(
            {
                "tech": st.sampled_from([DEFAULT_TECH, TECH, DEFAULT_TECH.scaled(vdd=1.4)]),
                "rows": _INTS,
                "cols": _INTS,
                "policy": _NAMES,
                "mode": _NAMES,
                "mechanism": _NAMES,
                "n_banks": _INTS,
                "temperature": _FLOATS,
                "start_lo": _FLOATS,
                "start_hi": _FLOATS,
                "n_points": _INTS,
            },
            optional={
                "seed": _INTS,
                "duration_seconds": _FLOATS,
                "nbits": _INTS,
                "benchmark": st.one_of(st.none(), _NAMES),
                "restore_fraction": st.one_of(st.none(), _FLOATS),
                "label": _NAMES,
            },
        )
    )
    return kind, values


class TestQueryOracle:
    """``Cell.of`` equals the retired typed ``Query`` on every valid request."""

    def test_oracle_covers_every_kind(self):
        assert set(KIND_PARAMS) == set(CELL_KINDS)

    @settings(max_examples=300, deadline=None)
    @given(_request())
    def test_cell_of_equals_query(self, drawn):
        kind, values = drawn
        cell = Cell.of(kind, **values)
        query = Query(kind=kind, **values)
        want = query.params()
        assert list(cell.params) == list(want)
        assert [type(v) for v in cell.params.values()] == [type(v) for v in want.values()]
        assert cell.params == want
        assert cell.label == query.label
        assert _key(cell) == query.key()
        assert cell == query.to_cell()


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
        cell = _cell(tech=tech)
        assert cell.params["tech"] == asdict(tech)
        assert _key(cell) == cache_key(
            "refresh-overhead", {**cell.params, "tech": asdict(tech)}
        )


class _Captured(Exception):
    """Stops a driver at its sweep, once its cells are recorded."""


class _KeyRecorder(ExperimentRunner):
    """A runner that records each sweep's cell keys and runs nothing."""

    def __init__(self):
        super().__init__()
        self.keys: dict[str, list[str]] = {}

    def run(self, cells, experiment=""):
        self.keys[experiment] = [_key(cell) for cell in cells]
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
        runner = _KeyRecorder()
        for verb in self.VERBS:
            with pytest.raises(_Captured):
                run_experiment(verb, runner=runner, seed=2018)
        assert {verb: len(keys) for verb, keys in runner.keys.items()} == {
            "fig4": 39, "baselines": 6, "rank": 5, "temperature": 5,
            "calibrate": 3,
        }
        every = sorted(key for keys in runner.keys.values() for key in keys)
        assert hashlib.sha256("\n".join(every).encode()).hexdigest() == self.DIGEST
        assert runner.keys["fig4"][0] == self.FIG4_FIRST
