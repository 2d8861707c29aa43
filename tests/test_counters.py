"""Unit tests for the saturating counters."""

import re

import numpy as np
import pytest

from repro.controller import CounterFile
from repro.controller.counters import MAX_NBITS
from repro.experiments.cli import main
from repro.mprsf import TauPartialOptimizer
from repro.runner import compute_cell, tech_params
from repro.technology import DEFAULT_TECH


class TestSaturatingCounter:
    """A one-row :class:`CounterFile` is one ``nbits``-wide saturating counter."""

    def test_max_value(self):
        assert CounterFile(1, 2).max_value == 3
        assert CounterFile(1, 4).max_value == 15

    def test_increments(self):
        c = CounterFile(1, 2)
        assert c.increment(0) == 1
        assert c.increment(0) == 2

    def test_load_saturates(self):
        c = CounterFile(1, 2, initial=100)
        assert c.get(0) == 3

    def test_rejects_negative_value(self):
        with pytest.raises(ValueError, match="negative"):
            CounterFile(1, 2, initial=-1)


class TestCounterFile:
    def test_initial_zero(self):
        cf = CounterFile(4, 2)
        assert cf.values.tolist() == [0, 0, 0, 0]

    def test_scalar_initial(self):
        cf = CounterFile(3, 2, initial=2)
        assert cf.values.tolist() == [2, 2, 2]

    def test_array_initial_saturates(self):
        cf = CounterFile(3, 2, initial=np.array([0, 5, 2]))
        assert cf.values.tolist() == [0, 3, 2]

    def test_increment_saturates(self):
        cf = CounterFile(2, 1)
        cf.increment(0)
        assert cf.increment(0) == 1  # saturated at 2^1 - 1

    def test_reset_single_row(self):
        cf = CounterFile(3, 2, initial=3)
        cf.reset(1)
        assert cf.values.tolist() == [3, 0, 3]

    def test_reset_all(self):
        cf = CounterFile(3, 2, initial=3)
        cf.reset_all()
        assert cf.values.tolist() == [0, 0, 0]

    def test_values_read_only(self):
        cf = CounterFile(2, 2)
        with pytest.raises(ValueError):
            cf.values[0] = 1

    def test_load_shape_check(self):
        cf = CounterFile(3, 2)
        with pytest.raises(ValueError, match="shape"):
            cf.load(np.zeros(4))

    def test_load_rejects_negative(self):
        cf = CounterFile(2, 2)
        with pytest.raises(ValueError, match="negative"):
            cf.load(np.array([-1, 0]))

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError, match="row"):
            CounterFile(0, 2)
        with pytest.raises(ValueError, match="nbits"):
            CounterFile(2, 0)


class TestCounterFileBatchOps:
    """The array entry points backing the policy kernel."""

    def test_get_rows_matches_scalar_and_copies(self):
        cf = CounterFile(4, 2, initial=np.array([0, 1, 2, 3]))
        rows = np.array([3, 1, 1])
        got = cf.get_rows(rows)
        assert got.tolist() == [cf.get(3), cf.get(1), cf.get(1)]
        got[:] = 99  # a copy: must not write through to the file
        assert cf.values.tolist() == [0, 1, 2, 3]

    def test_increment_rows_saturates(self):
        cf = CounterFile(3, 1, initial=np.array([0, 1, 1]))
        cf.increment_rows(np.array([0, 1, 2]))
        assert cf.values.tolist() == [1, 1, 1]  # rows 1, 2 clip at 2^1 - 1

    def test_increment_rows_duplicate_indices_accumulate(self):
        """np.add.at semantics: each occurrence counts (then clips)."""
        cf = CounterFile(2, 3)
        cf.increment_rows(np.array([0, 0, 0, 1]))
        assert cf.values.tolist() == [3, 1]

    def test_reset_rows(self):
        cf = CounterFile(4, 2, initial=3)
        cf.reset_rows(np.array([1, 3]))
        assert cf.values.tolist() == [3, 0, 3, 0]

    def test_empty_batches_are_noops(self):
        cf = CounterFile(2, 2, initial=1)
        empty = np.empty(0, dtype=np.int64)
        assert cf.get_rows(empty).tolist() == []
        cf.increment_rows(empty)
        cf.reset_rows(empty)
        assert cf.values.tolist() == [1, 1]


class TestWidthBound:
    """The library bounds ``nbits`` where the CLI does: a width whose
    cadence int64 cannot hold fails at construction, by name."""

    BOUND_ERROR = "nbits must be between 1 and 62, got {}"

    @pytest.mark.parametrize("nbits", [0, 63, 64])
    def test_constructors_reject_out_of_bound_widths(self, nbits):
        message = re.escape(self.BOUND_ERROR.format(nbits))
        with pytest.raises(ValueError, match=message):
            CounterFile(4, nbits)
        with pytest.raises(ValueError, match=message):
            TauPartialOptimizer(DEFAULT_TECH, nbits=nbits)

    def _cell(self, nbits):
        return compute_cell("refresh-overhead", {
            "tech": tech_params(DEFAULT_TECH), "rows": 256, "cols": 16,
            "policy": "vrl-access", "nbits": nbits, "benchmark": "canneal",
            "seed": 3, "duration_seconds": 0.05,
        })

    @pytest.mark.parametrize("nbits", [63, 64])
    def test_cells_past_the_bound_raise_the_bound_error(self, nbits):
        with pytest.raises(ValueError, match=re.escape(self.BOUND_ERROR.format(nbits))):
            self._cell(nbits)

    def test_cell_at_the_bound_computes(self):
        assert self._cell(MAX_NBITS)["refresh_cycles"] > 0

    def test_cli_error_line(self, capsys):
        argv = ["fig4", "--benchmarks", "swaptions", "--nbits", "63"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --nbits must be between 1 and 62, got 63\n"
