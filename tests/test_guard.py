"""Finite-value guard tests: structured NumericalError at layer boundaries."""

import numpy as np
import pytest

from repro import NumericalError, assert_finite
from repro.technology import DEFAULT_TECH, TechnologyParams


class TestAssertFinite:
    def test_finite_values_pass_through_unchanged(self):
        arr = np.array([1.0, 2.0, 3.0])
        assert assert_finite(arr, "unit.test") is arr
        assert assert_finite(4.2, "unit.test") == 4.2
        d = {"a": np.zeros(3), "b": 1.0}
        assert assert_finite(d, "unit.test") is d

    def test_non_float_dtypes_are_skipped(self):
        # An integer array cannot hold NaN; the guard must not coerce it.
        ints = np.array([1, 2, 3])
        assert assert_finite(ints, "unit.test") is ints
        assert assert_finite("label", "unit.test") == "label"
        assert assert_finite(None, "unit.test") is None

    def test_nan_raises_with_boundary_array_and_index(self):
        arr = np.array([0.0, 1.0, np.nan, 2.0])
        with pytest.raises(NumericalError) as info:
            assert_finite(arr, "sim.timeline.evaluate", "refresh_cycles")
        err = info.value
        assert err.boundary == "sim.timeline.evaluate"
        assert err.array == "refresh_cycles"
        assert err.index == 2
        assert np.isnan(err.value)
        assert "sim.timeline.evaluate" in str(err)
        assert "refresh_cycles[2]" in str(err)

    def test_inf_and_multidim_index(self):
        arr = np.zeros((2, 3))
        arr[1, 2] = np.inf
        with pytest.raises(NumericalError) as info:
            assert_finite(arr, "b", "m")
        assert info.value.index == (1, 2)
        assert info.value.value == np.inf

    def test_dict_guard_names_the_offending_entry(self):
        traces = {"good": np.zeros(2), "bad": np.array([np.nan])}
        with pytest.raises(NumericalError) as info:
            assert_finite(traces, "circuit.solver.simulate")
        assert info.value.array == "bad"

    def test_scalar_nan(self):
        with pytest.raises(NumericalError) as info:
            assert_finite(float("nan"), "b", "x")
        assert info.value.index == 0

    def test_to_dict_is_json_shaped(self):
        import json

        arr = np.zeros((2, 2))
        arr[0, 1] = np.nan
        with pytest.raises(NumericalError) as info:
            assert_finite(arr, "b", "m")
        record = info.value.to_dict()
        assert record["boundary"] == "b"
        assert record["index"] == [0, 1]  # tuple became a list
        assert sorted(record) == ["array", "boundary", "index", "value"]
        json.dumps(record)


class TestGuardedBoundaries:
    def test_technology_params_validate_on_construction(self):
        with pytest.raises(NumericalError) as info:
            TechnologyParams(**{**DEFAULT_TECH.__dict__, "vdd": float("nan")})
        assert info.value.boundary == "technology.TechnologyParams"
        assert info.value.array == "vdd"

    def test_validate_returns_self_for_chaining(self):
        assert DEFAULT_TECH.validate() is DEFAULT_TECH

    def test_measure_guard_names_the_node(self):
        from repro.circuit import GND, TransientResult, VoltageSource
        from repro.circuit.measure import delivered_energy

        source = VoltageSource("Vdd", "vdd", GND, 1.2)
        result = TransientResult(
            time=np.array([0.0, 1e-9]),
            voltages={},
            currents={"Vdd": np.array([0.0, np.nan])},
        )
        with pytest.raises(NumericalError) as info:
            delivered_energy(result, source)
        assert info.value.boundary == "circuit.measure.delivered_energy"
        assert info.value.array == "Vdd"
