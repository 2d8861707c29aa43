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

from repro.mprsf.optimizer import MAX_NBITS
from repro.runner import CELL_KINDS, Cell, ExperimentRunner, cache_key, tech_params
from repro.service import run_experiment
from repro.technology import DEFAULT_TECH, TechnologyParams
from repro.units import to_cycles
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


#: The kinds that price a horizon, with the other fields each requires.
_TIMED_KINDS = {
    "refresh-overhead": dict(policy="vrl"),
    "engine-run": dict(policy="vrl"),
    "rank-mode": dict(n_banks=4, mode="vrl"),
    "baseline-mechanism": dict(mechanism="raidr"),
    "mechanism-matrix": dict(mechanism="raidr", temperature=45.0),
}

#: A duration (s) of 2**64 cycles at the default 2.1 ns clock.
_PAST_INT64 = 2**64 * DEFAULT_TECH.tck_ctrl


class TestDurationDomain:
    """``Cell.of`` rejects a horizon the timeline cannot price; none is run."""

    def test_every_timed_kind_is_listed(self):
        timed = {k for k, spec in CELL_KINDS.items()
                 if "duration_seconds" in dict(spec.params)}
        assert timed == set(_TIMED_KINDS)

    @pytest.mark.parametrize("bad", [-1, -1e-9, 0, 0.0, -0.0, np.float64(-2.5)])
    @pytest.mark.parametrize("kind", sorted(_TIMED_KINDS))
    def test_non_positive_rejected(self, kind, bad):
        with pytest.raises(ValueError, match=(
            f"'{kind}', field 'duration_seconds': expected a positive duration"
        )):
            Cell.of(kind, tech=DEFAULT_TECH, rows=64, cols=8,
                    duration_seconds=bad, **_TIMED_KINDS[kind])

    @pytest.mark.parametrize("bad", [1e30, _PAST_INT64, 1e300, 1.7e308])
    @pytest.mark.parametrize("kind", sorted(_TIMED_KINDS))
    def test_cycles_past_int64_rejected(self, kind, bad):
        with pytest.raises(ValueError, match=(
            f"'{kind}', field 'duration_seconds': .* more than int64 holds"
        )):
            Cell.of(kind, tech=DEFAULT_TECH, rows=64, cols=8,
                    duration_seconds=bad, **_TIMED_KINDS[kind])

    def test_bound_follows_the_cells_clock(self):
        # Four times the clock period: a quarter of the cycles, accepted.
        slow = dict(TECH, tck_ctrl=4 * TECH["tck_ctrl"])
        assert _cell(tech=slow, duration_seconds=_PAST_INT64).params[
            "duration_seconds"] == _PAST_INT64
        with pytest.raises(ValueError, match="more than int64 holds"):
            _cell(duration_seconds=_PAST_INT64)

    def test_edge_is_the_last_int64_cycle_count(self):
        # Bisect the float line for the largest accepted duration (cells
        # are built, never computed): its cycle count fits int64, and the
        # next float's does not.
        def accepted(seconds):
            try:
                _cell(duration_seconds=seconds)
            except ValueError:
                return False
            return True

        lo, hi = 1.0, _PAST_INT64
        assert accepted(lo) and not accepted(hi)
        while math.nextafter(lo, math.inf) < hi:
            mid = lo + (hi - lo) / 2
            mid = mid if lo < mid < hi else math.nextafter(lo, math.inf)
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        tck = DEFAULT_TECH.tck_ctrl
        assert to_cycles(lo, tck) <= 2**63 - 1 < to_cycles(hi, tck)

    def test_unusable_clock_left_to_the_compute(self):
        # A cell's tech is projected, not validated: a zero clock fails
        # where the timing is built, as before.
        zero = dict(TECH, tck_ctrl=0.0)
        assert _cell(tech=zero, duration_seconds=1.0).params["tech"] == zero


#: The kinds that take a counter width, with the other fields each requires.
_NBITS_KINDS = {
    "refresh-overhead": dict(policy="vrl"),
    "engine-run": dict(policy="vrl"),
    "mechanism-matrix": dict(mechanism="raidr", temperature=45.0),
}


class TestNbitsDomain:
    """``Cell.of`` rejects a counter width the policies cannot hold, before
    the cell is keyed, with the bound the compute path enforces."""

    def test_every_nbits_kind_is_listed(self):
        takes = {k for k, spec in CELL_KINDS.items() if "nbits" in dict(spec.params)}
        assert takes == set(_NBITS_KINDS)

    @pytest.mark.parametrize("bad", [0, -1, MAX_NBITS + 1, 10**6, np.int64(63)])
    @pytest.mark.parametrize("kind", sorted(_NBITS_KINDS))
    def test_out_of_bound_widths_rejected(self, kind, bad):
        with pytest.raises(ValueError, match=(
            f"^cell kind '{kind}', field 'nbits': "
            f"nbits must be between 1 and {MAX_NBITS}, got {int(bad)}$"
        )):
            Cell.of(kind, tech=DEFAULT_TECH, rows=64, cols=8, nbits=bad,
                    **_NBITS_KINDS[kind])

    @pytest.mark.parametrize("width", [1, MAX_NBITS])
    @pytest.mark.parametrize("kind", sorted(_NBITS_KINDS))
    def test_bounds_accepted(self, kind, width):
        cell = Cell.of(kind, tech=DEFAULT_TECH, rows=64, cols=8, nbits=width,
                       **_NBITS_KINDS[kind])
        assert cell.params["nbits"] == width


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
#: Counter widths ``Cell.of`` accepts; the rejected ones are
#: ``TestNbitsDomain``'s.
_WIDTHS = st.one_of(
    st.integers(min_value=1, max_value=MAX_NBITS),
    st.integers(min_value=1, max_value=MAX_NBITS).map(np.int64),
)
#: Durations ``Cell.of`` accepts (positive, int64 cycles); the rejected
#: ones are ``TestDurationDomain``'s.
_DURATIONS = st.one_of(
    st.floats(min_value=0.0, max_value=1e9, exclude_min=True),
    st.floats(min_value=0.0, max_value=1e9, exclude_min=True).map(np.float64),
    st.integers(min_value=1, max_value=10**6),
)


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
                "duration_seconds": _DURATIONS,
                "nbits": _WIDTHS,
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
        # One cycle of the drawn clock (0.2 s if it has none): a horizon
        # whose cycle count fits int64, which Cell.of requires.
        duration = tech.tck_ctrl if tech.tck_ctrl > 0 else 0.2
        cell = _cell(tech=tech, duration_seconds=duration)
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
