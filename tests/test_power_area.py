"""Unit tests for the power and area models."""

import pytest

from repro.area import AreaModel
from repro.model import RefreshLatencyModel
from repro.power import RefreshPowerModel
from repro.sim import RefreshStats
from repro.technology import BankGeometry, DEFAULT_GEOMETRY, DEFAULT_TECH

TECH = DEFAULT_TECH


@pytest.fixture(scope="module")
def timings():
    model = RefreshLatencyModel(TECH, DEFAULT_GEOMETRY)
    return model.full_refresh(), model.partial_refresh()


@pytest.fixture
def power():
    return RefreshPowerModel(TECH, DEFAULT_GEOMETRY)


class TestRefreshEnergy:
    def test_components_positive(self, power, timings):
        full, _ = timings
        breakdown = power.refresh_energy(full)
        assert breakdown.bitline_energy > 0
        assert breakdown.cell_energy > 0
        assert breakdown.peripheral_energy > 0
        assert breakdown.total == pytest.approx(
            breakdown.bitline_energy + breakdown.cell_energy + breakdown.peripheral_energy
        )

    def test_partial_cheaper_than_full(self, power, timings):
        full, partial = timings
        assert power.refresh_energy(partial).total < power.refresh_energy(full).total

    def test_calibrated_ratio(self, power, timings):
        """Partial refresh costs ~82% of a full one (calibrated so the
        Fig. 4 policies reproduce the paper's ~12% power reduction)."""
        full, partial = timings
        ratio = power.refresh_energy(partial).total / power.refresh_energy(full).total
        assert 0.75 < ratio < 0.88

    def test_bitline_energy_duration_independent(self, power, timings):
        full, partial = timings
        assert power.refresh_energy(full).bitline_energy == pytest.approx(
            power.refresh_energy(partial).bitline_energy
        )

    def test_peripheral_energy_scales_with_latency(self, power, timings):
        full, partial = timings
        e_full = power.refresh_energy(full).peripheral_energy
        e_partial = power.refresh_energy(partial).peripheral_energy
        assert e_partial / e_full == pytest.approx(
            partial.total_cycles / full.total_cycles
        )

    def test_rejects_negative_current(self):
        with pytest.raises(ValueError, match="current"):
            RefreshPowerModel(TECH, peripheral_current=-1e-6)


class TestWorkloadEnergy:
    def test_counts_weighted(self, power, timings):
        full, partial = timings
        stats = RefreshStats(full_refreshes=10, partial_refreshes=30, duration_cycles=1000)
        e = power.workload_energy(stats, full, partial)
        expected = (
            10 * power.refresh_energy(full).total + 30 * power.refresh_energy(partial).total
        )
        assert e == pytest.approx(expected)

    def test_refresh_power(self, power, timings):
        full, partial = timings
        stats = RefreshStats(full_refreshes=100, partial_refreshes=0, duration_cycles=10_000)
        watts = power.refresh_power(stats, full, partial)
        duration = 10_000 * TECH.tck_ctrl
        assert watts == pytest.approx(100 * power.refresh_energy(full).total / duration)

    def test_power_requires_duration(self, power, timings):
        full, partial = timings
        with pytest.raises(ValueError, match="duration"):
            power.refresh_power(RefreshStats(), full, partial)


class TestAreaModel:
    """Table 2 anchors."""

    def test_paper_logic_areas(self):
        model = AreaModel()
        paper = {2: 105, 3: 152, 4: 200}
        for nbits, expected in paper.items():
            got = model.estimate(nbits).logic_area_um2
            assert got == pytest.approx(expected, rel=0.06)

    def test_paper_bank_percentages(self):
        model = AreaModel()
        paper = {2: 0.97, 3: 1.4, 4: 1.85}
        for nbits, expected in paper.items():
            got = 100 * model.estimate(nbits).fraction_of_bank
            assert got == pytest.approx(expected, rel=0.1)

    def test_within_two_percent_of_bank(self):
        """The paper's headline: overhead within 1-2% of a bank."""
        model = AreaModel()
        for estimate in model.table():
            assert estimate.fraction_of_bank < 0.02

    def test_monotone_in_nbits(self):
        model = AreaModel()
        areas = [model.estimate(n).logic_area for n in (1, 2, 3, 4, 5)]
        assert areas == sorted(areas)

    def test_larger_bank_smaller_fraction(self):
        small = AreaModel(BankGeometry(2048, 32)).estimate(2)
        large = AreaModel(BankGeometry(16384, 32)).estimate(2)
        assert large.fraction_of_bank < small.fraction_of_bank
        assert large.logic_area == small.logic_area  # logic is per-bank constant

    def test_table_widths(self):
        rows = AreaModel().table(widths=(2, 4))
        assert [r.nbits for r in rows] == [2, 4]

    def test_rejects_bad_nbits(self):
        with pytest.raises(ValueError, match="nbits"):
            AreaModel().gate_equivalents(0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AreaModel(gate_area=0.0)
