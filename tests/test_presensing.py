"""Unit tests for the pre-sensing model (Eq. 3-8)."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from repro.model import PreSensingModel
from repro.model import presensing
from repro.model.presensing import _brentq
from repro.technology import BankGeometry, DEFAULT_GEOMETRY, DEFAULT_TECH, TABLE1_GEOMETRIES

TECH = DEFAULT_TECH


@pytest.fixture
def model():
    return PreSensingModel(TECH, DEFAULT_GEOMETRY)


class TestU:
    def test_starts_at_one(self, model):
        assert model.u(0.0) == 1.0
        assert model.u(-1e-9) == 1.0

    def test_decays_to_zero(self, model):
        assert model.u(1e-6) < 1e-6

    def test_monotone_decreasing(self, model):
        ts = np.linspace(0, 20e-9, 300)
        us = np.array([model.u(float(t)) for t in ts])
        assert (np.diff(us) < 0).all()

    def test_matches_eq3_form(self, model):
        """U(t) = (Cs e^{-t/RC_bl} + C_bl e^{-t/RC_s}) / (Cs + C_bl)."""
        t = 1e-9
        cs, cbl, r = TECH.cs, model.cbl, model.r_pre
        expected = (
            cs * np.exp(-t / (r * cbl)) + cbl * np.exp(-t / (r * cs))
        ) / (cs + cbl)
        assert model.u(t) == pytest.approx(expected)


class TestVsenseIdeal:
    def test_eq4_value(self, model):
        expected = TECH.cs / (TECH.cs + model.cbl) * (TECH.vdd - TECH.veq)
        assert model.vsense_ideal(TECH.vdd) == pytest.approx(expected)

    def test_signed(self, model):
        assert model.vsense_ideal(TECH.vdd) > 0
        assert model.vsense_ideal(TECH.vss) < 0
        assert model.vsense_ideal(TECH.veq) == 0

    def test_delta_vbl_saturates_at_vsense(self, model):
        vs = model.vsense_ideal(TECH.vdd)
        assert model.delta_vbl(1e-6, vs) == pytest.approx(vs, rel=1e-6)
        assert model.delta_vbl(0.0, vs) == 0.0


class TestCouplingMatrix:
    def test_tridiagonal_structure(self, model):
        K = model.coupling_matrix(5)
        assert K.shape == (5, 5)
        assert (np.diag(K) == 1.0).all()
        assert np.allclose(np.diag(K, 1), -model.k2)
        assert np.allclose(np.diag(K, -1), -model.k2)
        assert K[0, 2] == 0.0

    def test_rejects_empty(self, model):
        with pytest.raises(ValueError, match="at least one"):
            model.coupling_matrix(0)

    def test_single_bitline(self, model):
        K = model.coupling_matrix(1)
        assert K.shape == (1, 1)
        assert K[0, 0] == 1.0


class TestVsenseCoupled:
    def test_reduces_to_ideal_without_coupling(self):
        tech = TECH.scaled(cbb=1e-25, cbw=1e-25)
        model = PreSensingModel(tech, DEFAULT_GEOMETRY)
        coupled = model.vsense_coupled([tech.vdd] * 3)
        for v in coupled:
            assert v == pytest.approx(model.vsense_ideal(tech.vdd), rel=1e-3)

    def test_satisfies_eq7_fixed_point(self, model):
        """Each V_sense,i = K1 L_i + K2 (V_{i-1} + V_{i+1}) (Eq. 7)."""
        v_cells = [TECH.vdd, TECH.vss, TECH.vdd, TECH.vdd, TECH.vss]
        vs = model.vsense_coupled(v_cells)
        lself = model.lself(v_cells)
        for i in range(len(vs)):
            left = vs[i - 1] if i > 0 else 0.0
            right = vs[i + 1] if i < len(vs) - 1 else 0.0
            assert vs[i] == pytest.approx(
                model.k1 * lself[i] + model.k2 * (left + right), rel=1e-9
            )

    def test_uniform_pattern_boosts_interior(self, model):
        """Same-sign neighbours reinforce the interior swing (Eq. 7)."""
        vs = model.vsense_pattern([1] * 9)
        interior = vs[4]
        k1 = model.k1
        ideal_uncoupled = k1 * (TECH.vdd - TECH.veq)
        assert interior > ideal_uncoupled

    def test_alternating_pattern_weakens_victim(self, model):
        uniform = model.vsense_pattern([1] * 9)[4]
        alternating = model.vsense_pattern([(i + 1) % 2 for i in range(9)])[4]
        assert 0 < alternating < uniform

    def test_worst_case_is_minimum_magnitude(self, model):
        pattern = [1, 0, 1, 0, 1]
        swings = np.abs(model.vsense_pattern(pattern))
        assert model.worst_case_vsense(pattern) == pytest.approx(float(swings.min()))

    def test_rejects_non_binary_pattern(self, model):
        with pytest.raises(ValueError, match="0/1"):
            model.vsense_pattern([0, 1, 2])


class TestDelay:
    def test_settle_slower_than_sense_margin(self, model):
        assert model.delay(criterion="settle") > model.delay(criterion="sense-margin")

    def test_unknown_criterion_rejected(self, model):
        with pytest.raises(ValueError, match="criterion"):
            model.delay(criterion="bogus")

    def test_bad_settle_fraction_rejected(self, model):
        with pytest.raises(ValueError, match="settle_fraction"):
            model.delay(criterion="settle", settle_fraction=1.0)

    def test_oversized_margin_capped_to_swing(self):
        """A margin above the achievable swing is capped, not fatal.

        Real sense-amp offset budgets scale with available signal; the
        model caps the margin at MARGIN_SWING_CAP of the worst swing so
        large banks (16384 rows) stay sensable.
        """
        tech = TECH.scaled(sense_margin=0.5)
        model = PreSensingModel(tech, DEFAULT_GEOMETRY)
        pattern = [i % 2 for i in range(8)]
        capped = model.effective_sense_margin(pattern)
        assert capped == pytest.approx(
            model.MARGIN_SWING_CAP * model.worst_case_vsense(pattern)
        )
        assert model.delay(criterion="sense-margin") > 0  # no exception

    def test_margin_uncapped_on_default_bank(self):
        """On the paper's bank the technology margin is below the cap."""
        model = PreSensingModel(TECH, DEFAULT_GEOMETRY)
        assert model.effective_sense_margin() == TECH.sense_margin

    def test_delay_grows_with_rows(self):
        d = {
            rows: PreSensingModel(TECH, BankGeometry(rows, 32)).delay(criterion="settle")
            for rows in (2048, 8192, 16384)
        }
        assert d[2048] < d[8192] < d[16384]

    def test_delay_grows_with_cols(self):
        d32 = PreSensingModel(TECH, BankGeometry(8192, 32)).delay(criterion="settle")
        d128 = PreSensingModel(TECH, BankGeometry(8192, 128)).delay(criterion="settle")
        assert d128 > d32

    def test_wordline_delay_excludable(self, model):
        with_wl = model.delay(criterion="settle", include_wordline=True)
        without = model.delay(criterion="settle", include_wordline=False)
        assert with_wl - without == pytest.approx(model.wordline_delay())

    def test_higher_settle_fraction_takes_longer(self, model):
        assert model.delay(criterion="settle", settle_fraction=0.99) > model.delay(
            criterion="settle", settle_fraction=0.90
        )

    def test_delay_cycles_quantizes_up(self, model):
        t = model.delay(criterion="settle")
        cycles = model.delay_cycles(TECH.tck_dev, criterion="settle")
        assert (cycles - 1) * TECH.tck_dev < t <= cycles * TECH.tck_dev

    def test_paper_section31_value(self, model):
        """tau_pre = 2 controller cycles (Sec. 3.1)."""
        assert model.delay_cycles(TECH.tck_ctrl, criterion="sense-margin") == 2


def _same_double(a, b):
    return float(a).hex() == float(b).hex()


def _outcome(solver, f, a, b, xtol):
    """The root as an exact hex string, or the exception type raised."""
    try:
        return float(solver(f, a, b, xtol=xtol)).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


class TestBrentOracle:
    """``_brentq`` returns scipy's ``brentq`` root bit for bit, and fails alike."""

    @settings(max_examples=200, deadline=None)
    @given(
        geometry=st.sampled_from(TABLE1_GEOMETRIES),
        criterion=st.sampled_from(("sense-margin", "settle")),
        settle_fraction=st.floats(0.5, 0.99),
        pattern=st.lists(st.integers(0, 1), min_size=8, max_size=8),
    )
    def test_solve_u_roots_match_scipy(self, geometry, criterion, settle_fraction, pattern):
        roots = []

        def both(f, a, b, xtol):
            ours = _brentq(f, a, b, xtol)
            roots.append((ours, scipy_brentq(f, a, b, xtol=xtol)))
            return ours

        model = PreSensingModel(TECH, geometry)
        with mock.patch.object(presensing, "_brentq", both):
            model.delay(criterion=criterion, settle_fraction=settle_fraction, pattern=pattern)
        assert len(roots) == 1
        assert _same_double(*roots[0])

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.sampled_from(("tanh", "cubic", "expm1", "logistic", "atan")),
        root=st.floats(-1e3, 1e3),
        scale=st.floats(1e-3, 1e3),
        below=st.floats(1e-6, 1e3),
        above=st.floats(1e-6, 1e3),
        decreasing=st.booleans(),
        swap=st.booleans(),
        xtol=st.sampled_from((5e-324, 1e-15, 2e-12, 1e-6)),
    )
    def test_monotone_smooth_roots_match_scipy(
        self, shape, root, scale, below, above, decreasing, swap, xtol
    ):
        g = {
            "tanh": lambda y: math.tanh(y),
            "cubic": lambda y: y**3 + y,
            "expm1": lambda y: math.expm1(min(y, 700.0)),
            "logistic": lambda y: 1.0 / (1.0 + math.exp(-max(y, -700.0))) - 0.5,
            "atan": lambda y: math.atan(y) + 1e-3 * y,
        }[shape]
        sign = -1.0 if decreasing else 1.0

        def f(x):
            return sign * g(scale * (x - root))

        a, b = root - below, root + above
        if swap:
            a, b = b, a
        # A bracket rounded onto one side of the root, or a root at 0 with
        # a subnormal xtol, must fail the same way in both.
        assert _outcome(_brentq, f, a, b, xtol) == _outcome(scipy_brentq, f, a, b, xtol)

    def test_endpoint_root_is_returned(self):
        for a, b in ((0.0, 1.0), (-1.0, 0.0)):
            assert _brentq(lambda x: x, a, b, 1e-15) == scipy_brentq(lambda x: x, a, b) == 0.0

    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (2.0, 3.0), (-3.0, -2.0)])
    def test_same_sign_bracket_raises_value_error(self, a, b):
        def f(x):
            return x * x + 1.0

        with pytest.raises(ValueError, match="different signs"):
            scipy_brentq(f, a, b, xtol=1e-15)
        with pytest.raises(ValueError, match="different signs"):
            _brentq(f, a, b, 1e-15)

    @pytest.mark.parametrize("nan_at", ["a", "b", "interior"])
    def test_nan_raises_value_error(self, nan_at):
        def f(x):
            if (nan_at == "a" and x == -1.0) or (nan_at == "b" and x == 2.0):
                return math.nan
            if nan_at == "interior" and -1.0 < x < 2.0:
                return math.nan
            return x

        with pytest.raises(ValueError, match="NaN"):
            scipy_brentq(f, -1.0, 2.0, xtol=1e-15)
        with pytest.raises(ValueError, match="NaN"):
            _brentq(f, -1.0, 2.0, 1e-15)

    @pytest.mark.parametrize("maxiter", [0, 1, 3])
    def test_maxiter_exhaustion_raises_runtime_error(self, maxiter):
        def f(x):
            return math.tanh(x - 0.3)

        with pytest.raises(RuntimeError):
            scipy_brentq(f, -1.0, 2.0, xtol=1e-15, maxiter=maxiter)
        with pytest.raises(RuntimeError, match=r"PreSensingModel\._solve_u"):
            _brentq(f, -1.0, 2.0, 1e-15, maxiter=maxiter)

    def test_solve_u_surfaces_non_convergence(self, model):
        starved = functools.partial(_brentq, maxiter=2)
        with mock.patch.object(presensing, "_brentq", starved):
            with pytest.raises(RuntimeError, match=r"PreSensingModel\._solve_u"):
                model.delay(criterion="settle")

    def test_solve_u_converges_well_inside_maxiter(self, model):
        """The Table 1 targets need far fewer than the default 100 iterations."""
        starved = functools.partial(_brentq, maxiter=50)
        for geometry in TABLE1_GEOMETRIES:
            m = PreSensingModel(TECH, geometry)
            for criterion in ("sense-margin", "settle"):
                want = m.delay(criterion=criterion)
                with mock.patch.object(presensing, "_brentq", starved):
                    assert m.delay(criterion=criterion) == want
