"""``cache_key`` against its one-line definition.

``cache_key`` splices a memoized encoding of ``params["tech"]`` into
the rest of the recipe instead of encoding the whole recipe per cell.
Whatever the params, the key must equal the plain definition: SHA-256
over ``json.dumps(recipe, sort_keys=True, separators=(",", ":"),
allow_nan=False)``.  The cases that could trip a splice or an
identity memo are drawn on purpose: ``-0.0`` next to ``0.0``, ``True``
next to ``1``, big ints, ``np.float64``, nested dicts with their own
``"tech"`` key, strings holding NUL, quotes and backslashes (the
splice's sentinel is a NUL string), and a tech dict mutated between
two calls.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.runner import cache as cache_module
from repro.runner import CELL_KINDS, Cell, cache_key, tech_params
from repro.runner.cache import CACHE_SCHEMA
from repro.technology import DEFAULT_TECH

KIND = "refresh-overhead"


def oracle(kind, params):
    """The definition of the key, with nothing memoized."""
    recipe = {
        "kind": kind,
        "params": params,
        "version": __version__,
        "schema": CACHE_SCHEMA,
        "result_schema": CELL_KINDS[kind].schema_version,
    }
    text = json.dumps(recipe, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


_TRICKY_TEXT = st.text(alphabet=st.sampled_from(["\x00", '"', "\\", "a", "é", "\n"]))
_KEYS = st.one_of(st.sampled_from(["tech", "vdd", "\x00", '"', "\\"]), _TRICKY_TEXT, st.text())
_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    st.sampled_from([0.0, -0.0, 1, 1.0, True, 0, False]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.just("\x00"),
    _TRICKY_TEXT,
)
_VALUE = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_KEYS, inner, max_size=3),
    ),
    max_leaves=8,
)
_TECH = st.one_of(
    st.dictionaries(_KEYS, _SCALAR, max_size=6),
    st.dictionaries(_KEYS, _VALUE, max_size=4),
    _VALUE,
)


@st.composite
def _params(draw):
    params = draw(st.dictionaries(_KEYS, _VALUE, max_size=5))
    if draw(st.booleans()):
        params["tech"] = draw(_TECH)
    return params


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(_params())
    def test_key_equals_definition(self, params):
        want = oracle(KIND, params)
        assert cache_key(KIND, params) == want
        # A second call may hit the tech memo; it must give the same key.
        assert cache_key(KIND, params) == want
        if isinstance(params.get("tech"), dict):
            copy = {**params, "tech": dict(params["tech"])}
            assert cache_key(KIND, copy) == want

    @settings(max_examples=80, deadline=None)
    @given(
        st.dictionaries(_KEYS, _SCALAR, min_size=1, max_size=6),
        st.lists(st.tuples(_KEYS, _SCALAR), min_size=1, max_size=4),
    )
    def test_tech_mutated_between_calls(self, tech, edits):
        params = {"tech": tech, "rows": 64}
        assert cache_key(KIND, params) == oracle(KIND, params)
        for name, value in edits:
            tech[name] = value
            assert cache_key(KIND, params) == oracle(KIND, params)

    def test_nested_value_mutated_in_place(self):
        # Same value objects, new contents: only scalars may be memoized.
        tech = {"vdd": 1.2, "table": [1, 2], "sub": {"a": 1}}
        params = {"tech": tech}
        assert cache_key(KIND, params) == oracle(KIND, params)
        tech["table"].append(3)
        tech["sub"]["a"] = -0.0
        assert cache_key(KIND, params) == oracle(KIND, params)

    @pytest.mark.parametrize(
        "old, new", [(0.0, -0.0), (1, True), (1, 1.0), (0, False), (1.0, np.float64(1.0))]
    )
    def test_equal_values_that_encode_differently(self, old, new):
        # ``old == new`` (and they hash alike), but they encode apart.
        tech = dict(tech_params(DEFAULT_TECH), vdd=old)
        first = cache_key(KIND, {"tech": tech})
        tech["vdd"] = new
        assert cache_key(KIND, {"tech": tech}) == oracle(KIND, {"tech": tech})
        if json.dumps(old) != json.dumps(new):
            assert cache_key(KIND, {"tech": tech}) != first

    def test_edge_cases(self):
        tech = tech_params(DEFAULT_TECH)
        for params in (
            {"tech": {}},  # the memo's initial state
            {"tech": tech, "benchmark": "\x00"},
            {"tech": tech, "\x00": 1},
            {"tech": tech, "nested": {"tech": "\x00"}},
            {"tech": "\x00"},
            {"tech": {"tech": "\x00"}},
        ):
            assert cache_key(KIND, params) == oracle(KIND, params)

    def test_first_key_of_a_fresh_process(self):
        # The memo's initial state is only seen before any other key.
        script = (
            "import sys; sys.path.insert(0, 'tests'); "
            "from test_cache_key_oracle import KIND, oracle; "
            "from repro.runner import cache_key; "
            "params = {'tech': {}}; "
            "assert cache_key(KIND, params) == oracle(KIND, params)"
        )
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        subprocess.run([sys.executable, "-c", script], cwd=root, env=env, check=True)


class TestNaN:
    @pytest.mark.parametrize("where", ["tech", "params"])
    def test_nan_raises(self, where):
        tech = tech_params(DEFAULT_TECH)
        cache_key(KIND, {"tech": tech})  # the tech memo now holds it
        if where == "tech":
            params = {"tech": {**tech, "vdd": float("nan")}}
        else:
            params = {"tech": tech, "duration_seconds": float("nan")}
        with pytest.raises(ValueError):
            cache_key(KIND, params)

    def test_nan_after_in_place_mutation(self):
        tech = tech_params(DEFAULT_TECH)
        cache_key(KIND, {"tech": tech})
        tech["vdd"] = float("nan")
        with pytest.raises(ValueError):
            cache_key(KIND, {"tech": tech})


class TestEncodedOnce:
    def test_unchanged_tech_is_encoded_once_per_sweep(self, monkeypatch):
        cells = [
            Cell.of(KIND, tech=DEFAULT_TECH, rows=64, cols=8, policy="vrl", seed=seed)
            for seed in range(5)
        ]
        cache_key(KIND, {"tech": {"other": 1.5}})  # evict the default tech
        encoded = []
        real = cache_module.canonical_json
        monkeypatch.setattr(
            cache_module, "canonical_json", lambda value: encoded.append(value) or real(value)
        )
        keys = [cache_key(cell.kind, cell.params) for cell in cells]
        # One encoding per recipe around the sentinel, one of the tech.
        assert len(encoded) == len(cells) + 1
        assert keys == [oracle(KIND, cell.params) for cell in cells]


class TestTechProjectionMemo:
    def test_returns_fresh_equal_copies(self):
        first = tech_params(DEFAULT_TECH)
        second = tech_params(DEFAULT_TECH)
        assert first == second and first is not second
        first["vdd"] = -1.0
        assert tech_params(DEFAULT_TECH)["vdd"] == DEFAULT_TECH.vdd

    def test_equal_params_object_projects_its_own_values(self):
        clone = type(DEFAULT_TECH)(**{**DEFAULT_TECH.__dict__, "vdd": 1.25})
        tech_params(DEFAULT_TECH)
        assert tech_params(clone)["vdd"] == 1.25
        assert tech_params(DEFAULT_TECH)["vdd"] == DEFAULT_TECH.vdd

    def test_memo_is_not_on_the_instance(self):
        tech_params(DEFAULT_TECH)
        assert set(DEFAULT_TECH.__dict__) == set(tech_params(DEFAULT_TECH))
