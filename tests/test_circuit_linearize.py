"""Exact oracle for the one-lane device law (architecture invariant 14).

A scalar Newton round linearizes every MOSFET on Python floats
(:meth:`CompiledCircuit._linearize`) and scatters the stamps through
positions cached per swap pattern (:meth:`CompiledCircuit._scatter_index`);
batched rounds keep the vectorized :meth:`CompiledCircuit._device_stamps`,
whose stacked-lane form must give each lane its one-lane stamps.
The laws must agree bit for bit — the swap pattern, and the stamp values
as raw bytes, so signed zeros count — on every operating point:
``vd == vs``, ``vds == vov``, ±0.0, cut-off, PMOS polarity and grounded
terminals.  A NaN terminal must make the device's stamps non-finite in
both.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import GND, NMOS, PMOS, Circuit, Resistor
from repro.circuit import compiled
from repro.circuit.compiled import build_assembler

NODES = ("n0", "n1", "n2", "n3")

#: Node voltages: a dyadic grid (exact differences, so ``vd == vs`` and
#: ``vds == vov`` occur exactly), signed zeros, and arbitrary floats.
VOLTS = st.one_of(
    st.integers(-24, 24).map(lambda k: k / 8),
    st.sampled_from([0.0, -0.0]),
    st.floats(-3.0, 3.0, allow_nan=False),
)

#: Thresholds: zero (so ``vgs - vt`` can be -0.0), dyadic, arbitrary.
THRESHOLDS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75]),
    st.floats(0.0, 1.0, allow_nan=False),
)

DEVICES = st.tuples(
    st.booleans(),  # PMOS?
    st.sampled_from(NODES + (GND,)),  # drain
    st.sampled_from(NODES + (GND,)),  # gate
    st.sampled_from(NODES + (GND,)),  # source
    THRESHOLDS,
    st.sampled_from([0.0, 0.01, 0.05]),  # lambda
)


def _assembler(devices):
    """Compile the devices (plus a resistor per node)."""
    circuit = Circuit(name="linearize")
    for node in NODES:
        circuit.add(Resistor(f"R_{node}", node, GND, 1e3))
    for k, (pmos, d, g, s, vt, lam) in enumerate(devices):
        cls = PMOS if pmos else NMOS
        circuit.add(cls(f"M{k}", d=d, g=g, s=s, beta=1e-4 * (k + 1), vt=vt, lam=lam))
    size = circuit.assemble()
    return circuit, build_assembler(circuit, size)


def _state(circuit, assembler, volts):
    xp = np.zeros(assembler.size + 1)
    for node, v in zip(NODES, volts):
        xp[circuit.node_id(node)] = v
    return xp


LANE_VOLTS = st.lists(VOLTS, min_size=len(NODES), max_size=len(NODES))


@settings(max_examples=400, deadline=None)
@given(
    devices=st.lists(DEVICES, min_size=1, max_size=6),
    volts=LANE_VOLTS,
    other=LANE_VOLTS,
)
def test_python_float_law_is_bit_identical(devices, volts, other):
    circuit, assembler = _assembler(devices)
    xp = _state(circuit, assembler, volts)
    swaps, values = assembler._linearize(xp)
    swap, expected = assembler._device_stamps(xp)
    assert swaps == tuple(swap.tolist())
    np.testing.assert_array_equal(
        assembler._scatter_index(swaps), assembler._scatter_positions(swap)
    )
    np.testing.assert_array_equal(
        np.asarray(values, dtype=float).view(np.int64), expected.view(np.int64)
    )
    # Stacked lanes (lane axis last in the output): each lane's column
    # is its one-lane law, byte for byte.
    lanes = np.stack([xp, _state(circuit, assembler, other), xp])
    lane_swap, lane_values = assembler._device_stamps(lanes)
    for lane in range(len(lanes)):
        one_swap, one_values = assembler._device_stamps(lanes[lane])
        np.testing.assert_array_equal(lane_swap[:, lane], one_swap)
        np.testing.assert_array_equal(
            lane_values[:, lane].view(np.int64), one_values.view(np.int64)
        )


@pytest.mark.parametrize("pmos", [False, True])
@pytest.mark.parametrize("terminal", ["d", "g", "s"])
def test_nan_terminal_is_non_finite_in_both(terminal, pmos):
    nodes = dict(zip("dgs", NODES))
    device = (pmos, nodes["d"], nodes["g"], nodes["s"], 0.5, 0.01)
    circuit, assembler = _assembler([device])
    volts = [1.0, 1.2, 0.25, 0.0]
    volts[NODES.index(nodes[terminal])] = float("nan")
    xp = _state(circuit, assembler, volts)
    _swaps, values = assembler._linearize(xp)
    _swap, expected = assembler._device_stamps(xp)
    assert not np.isfinite(np.asarray(values)).any()
    assert not np.isfinite(expected).any()


def test_scatter_positions_are_cached_per_swap_pattern(monkeypatch):
    devices = [(False, "n0", "n1", "n2", 0.5, 0.01), (True, "n2", "n3", GND, 0.5, 0.01)]
    circuit, assembler = _assembler(devices)
    forward = assembler._scatter_index((False, False))
    assert assembler._scatter_index((False, False)) is forward
    swapped = assembler._scatter_index((True, False))
    assert not np.array_equal(forward, swapped)
    assert len(assembler._scatter_cache) == 2
    # A full cache is cleared rather than left to grow with 2**n patterns.
    monkeypatch.setattr(compiled, "_SCATTER_CACHE_SIZE", 2)
    index = assembler._scatter_positions(np.array([True, True]))
    np.testing.assert_array_equal(assembler._scatter_index((True, True)), index)
    assert list(assembler._scatter_cache) == [(True, True)]
