"""The MPRSF loops stop at the survivors' fixed point, exactly.

:meth:`MPRSFCalculator.mprsf_for_points` and
:meth:`MPRSFCalculator.mprsf_for_cell` used to run ``max_count + 1``
leak/restore rounds whatever the survivors did, which made the cost
grow as ``2^nbits``.  They now stop once a round kills no cell and the
restore hands back the fractions it was given.  The loops below are the
old ones, kept as the oracle: the early exit must agree with them bit
for bit.  A partial refresh that reaches its target hands every
survivor the same fraction after one round; the shorter drive windows
below fall short of it, so the survivors creep toward their fixed point
for several rounds and some die on the way.
"""

import dataclasses

import numpy as np
import pytest

from repro.mprsf import MPRSFCalculator
from repro.retention import RefreshBinning, RetentionProfiler, worst_pattern
from repro.technology import DEFAULT_TECH, BankGeometry
from repro.units import MS


def reference_mprsf_for_points(calc, retention, period, timing, max_count,
                               apply_guard=True):
    """The vectorized loop without the fixed-point exit."""
    derating = worst_pattern().retention_derating
    if apply_guard:
        derating *= calc.tech.retention_guard
    n = retention.size
    out = np.full(n, max_count, dtype=np.int64)
    decay = calc.leakage.decay_factors(retention, period, derating)
    active = np.arange(n)
    fraction = np.ones(n)
    for issued_partials in range(max_count + 1):
        decayed = fraction * decay[active]
        dead = decayed < calc.tech.fail_fraction
        if dead.any():
            out[active[dead]] = issued_partials
            active = active[~dead]
            decayed = decayed[~dead]
            if active.size == 0:
                break
        fraction = calc.model.restored_fractions(decayed, timing)
    return out


def reference_mprsf_for_cell(calc, retention, period, timing, max_count,
                             apply_guard=True):
    """The scalar loop without the fixed-point exit."""
    derating = worst_pattern().retention_derating
    if apply_guard:
        derating *= calc.tech.retention_guard
    fraction = 1.0
    for issued_partials in range(max_count + 1):
        decayed = calc.leakage.fraction_after(fraction, period, retention, derating)
        if decayed < calc.tech.fail_fraction:
            return issued_partials
        fraction = calc.model.restored_fraction(decayed, timing)
    return max_count


def _bank(seed, guard, rows=2048):
    """A calculator and its bank's distinct (retention, period) points."""
    tech = dataclasses.replace(DEFAULT_TECH, retention_guard=guard)
    geometry = BankGeometry(rows, 32)
    profile = RetentionProfiler(seed=seed).profile(geometry)
    binning = RefreshBinning().assign(profile)
    points = np.unique(
        np.stack([profile.row_retention, binning.row_period], axis=1), axis=0
    )
    return MPRSFCalculator(tech, geometry), points[:, 0], points[:, 1]


#: Drive windows (``tau_post`` cycles): the default partial timing's
#: own, and two that fall short of its target.
WINDOWS = [None, 2, 1]


def _partial(calc, tau_post):
    """The default partial timing, its drive window set to ``tau_post``."""
    timing = calc.model.partial_refresh()
    return timing if tau_post is None else dataclasses.replace(timing, tau_post=tau_post)


@pytest.mark.parametrize("tau_post", WINDOWS, ids=lambda w: f"tau_post={w}")
@pytest.mark.parametrize("seed", [2018, 7, 1])
@pytest.mark.parametrize("guard", [1.0, 0.9, 0.7])
def test_points_match_the_full_loop(seed, guard, tau_post):
    calc, retention, period = _bank(seed, guard)
    timing = _partial(calc, tau_post)
    for nbits in range(1, 9):
        max_count = (1 << nbits) - 1
        for apply_guard in (True, False):
            got = calc.mprsf_for_points(
                retention, period, timing, max_count=max_count, apply_guard=apply_guard
            )
            want = reference_mprsf_for_points(
                calc, retention, period, timing, max_count, apply_guard
            )
            assert np.array_equal(got, want), (nbits, apply_guard)


@pytest.mark.parametrize("tau_post", WINDOWS, ids=lambda w: f"tau_post={w}")
@pytest.mark.parametrize("retention_ms", [64.5, 70.0, 90.0, 150.0, 400.0, 5000.0])
@pytest.mark.parametrize("period_ms", [64.0, 128.0, 256.0])
def test_cell_matches_the_full_loop(retention_ms, period_ms, tau_post):
    calc = MPRSFCalculator(DEFAULT_TECH)
    timing = _partial(calc, tau_post)
    ret, per = retention_ms * MS, period_ms * MS
    for nbits in range(1, 9):
        max_count = (1 << nbits) - 1
        got = calc.mprsf_for_cell(ret, per, timing, max_count=max_count)
        assert got == reference_mprsf_for_cell(calc, ret, per, timing, max_count), nbits


def test_forty_bit_counter_costs_a_few_rounds(monkeypatch):
    """At ``max_count = 2^40 - 1`` the default bank needs a handful of
    restore calls, not 2^40."""
    calc, retention, period = _bank(2018, DEFAULT_TECH.retention_guard, rows=8192)
    calls = []
    real = calc.model.restored_fractions

    def counted(fractions, timing):
        calls.append(len(fractions))
        return real(fractions, timing)

    monkeypatch.setattr(calc.model, "restored_fractions", counted)
    wide = calc.mprsf_for_points(retention, period, max_count=(1 << 40) - 1)
    assert len(calls) <= 16, len(calls)
    narrow = reference_mprsf_for_points(
        calc, retention, period, calc.model.partial_refresh(), 15
    )
    # Below the 4-bit cap the two widths agree; above it the wide counter
    # keeps the cell's own (uncapped) value.
    assert np.array_equal(np.minimum(wide, 15), narrow)
