"""Unit tests for the charge-leakage model."""

import math

import pytest

from repro.model import LeakageModel
from repro.technology import DEFAULT_TECH
from repro.units import MS

TECH = DEFAULT_TECH


@pytest.fixture
def model():
    return LeakageModel(TECH)


class TestTau:
    def test_tau_pins_retention_definition(self, model):
        """Full charge decays exactly to the fail threshold at T_ret."""
        t_fail = model.time_to_failure(1.0, 0.3)
        assert abs(t_fail - 0.3) / 0.3 < 1e-9

    def test_pattern_factor_shortens_tau(self, model):
        assert model.tau(0.3, pattern_factor=0.85) < model.tau(0.3, pattern_factor=1.0)

    def test_rejects_bad_pattern_factor(self, model):
        with pytest.raises(ValueError, match="pattern_factor"):
            model.tau(0.3, pattern_factor=0.0)
        with pytest.raises(ValueError, match="pattern_factor"):
            model.tau(0.3, pattern_factor=1.5)


class TestFractionAfter:
    def test_no_time_no_decay(self, model):
        assert model.fraction_after(0.9, 0.0, 0.3) == pytest.approx(0.9)

    def test_exponential_composition(self, model):
        """decay(t1+t2) == decay(t1) then decay(t2)."""
        one_shot = model.fraction_after(1.0, 100 * MS, 0.3)
        two_step = model.fraction_after(
            model.fraction_after(1.0, 60 * MS, 0.3), 40 * MS, 0.3
        )
        assert one_shot == pytest.approx(two_step, rel=1e-12)

    def test_retention_definition_roundtrip(self, model):
        retention = 0.25
        final = model.fraction_after(1.0, retention, retention)
        assert final == pytest.approx(TECH.fail_fraction, rel=1e-9)

    def test_weak_cell_decays_faster(self, model):
        strong = model.fraction_after(1.0, 64 * MS, 1.0)
        weak = model.fraction_after(1.0, 64 * MS, 0.1)
        assert weak < strong

    def test_rejects_negative_inputs(self, model):
        with pytest.raises(ValueError, match="negative"):
            model.fraction_after(-0.1, 1e-3, 0.3)
        with pytest.raises(ValueError, match="negative"):
            model.fraction_after(0.9, -1e-3, 0.3)


class TestRetainsData:
    def test_threshold(self, model):
        assert model.retains_data(TECH.fail_fraction)
        assert model.retains_data(TECH.fail_fraction + 0.01)
        assert not model.retains_data(TECH.fail_fraction - 0.01)


class TestTimeToFailure:
    def test_full_charge_fails_at_retention(self, model):
        retention = 0.4
        assert model.time_to_failure(1.0, retention) == pytest.approx(retention, rel=1e-9)

    def test_partial_charge_fails_earlier(self, model):
        retention = 0.4
        assert model.time_to_failure(0.95, retention) < retention

    def test_already_failed(self, model):
        assert model.time_to_failure(TECH.fail_fraction - 0.01, 0.4) == 0.0

    def test_consistent_with_fraction_after(self, model):
        retention = 0.4
        t_fail = model.time_to_failure(0.95, retention)
        assert model.fraction_after(0.95, t_fail, retention) == pytest.approx(
            TECH.fail_fraction, rel=1e-9
        )

    def test_pattern_factor_accelerates_failure(self, model):
        assert model.time_to_failure(1.0, 0.4, pattern_factor=0.85) < model.time_to_failure(
            1.0, 0.4, pattern_factor=1.0
        )
