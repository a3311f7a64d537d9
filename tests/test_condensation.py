"""Debt accounting, condensation thresholds, and the explosion scan."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerophase import condensation
from zerophase._numeric import envelope_argmin, lower_envelope
from zerophase.condensation import (DebtLedger, DebtPosition, ExplosionScan,
                                    LongTermDebt, ParetoLevels, TwoLevelEconomy,
                                    condensate_excess, critical_number,
                                    debt_supply, empirical_threshold_model,
                                    long_term_gdp_contribution, money_at_theta,
                                    multi_currency_threshold,
                                    social_explosion_scan, social_functional,
                                    sqrt_threshold_model)
from zerophase.errors import GuardExceeded, InputError


# ---------------------------------------------------------------------------
# ledger arithmetic


def test_ledger_money_supply():
    ledger = DebtLedger(
        positions=(DebtPosition(100.0, 2.5),),
        long_term=(LongTermDebt(1000.0, 20.0),),
    )
    supply = debt_supply(ledger, sigma_avg=2.0)
    np.testing.assert_allclose(supply.M, 300.0)
    np.testing.assert_allclose(supply.N, 150.0)


def test_ledger_validation():
    with pytest.raises(InputError):
        DebtPosition(-1.0, 2.0)
    with pytest.raises(InputError):
        DebtPosition(1.0, 0.0)
    with pytest.raises(InputError):
        LongTermDebt(1.0, 0.5)  # shorter than a year is not long-term
    ledger = DebtLedger()
    with pytest.raises(InputError):
        debt_supply(ledger, 0.0)


# ---------------------------------------------------------------------------
# thresholds


def test_single_level_threshold_closed_form():
    lv = ParetoLevels(gamma=1.5, k=1)
    np.testing.assert_allclose(critical_number(lv, 1.0),
                               1.0 / (math.e - 1.0), rtol=1e-14)


def test_threshold_monotone_in_temperature():
    lv = ParetoLevels(gamma=1.2, k=40)
    thetas = (0.5, 1.0, 2.0, 4.0)
    values = [critical_number(lv, t) for t in thetas]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_threshold_stable_at_extreme_temperatures():
    lv = ParetoLevels(gamma=1.2, k=50)
    assert critical_number(lv, 1e-6) == 0.0  # underflows cleanly, no warnings
    assert math.isfinite(critical_number(lv, 1e4))
    with pytest.raises(InputError):
        critical_number(lv, 0.0)


def test_condensate_excess_clips_at_zero():
    lv = ParetoLevels(gamma=1.5, k=1)
    report = condensate_excess(lv, 1.0, 10.0)
    np.testing.assert_allclose(report.excess, 10.0 - 1.0 / (math.e - 1.0),
                               rtol=1e-12)
    assert "long-term" in report.assigned_level
    assert condensate_excess(lv, 1.0, 0.1).excess == 0.0


@pytest.mark.parametrize("K", [1, 2, 4, 9, 16])
def test_sqrt_model_gains_sqrt_K(K):
    ratio = multi_currency_threshold(100.0, K, sqrt_threshold_model()).ratio
    np.testing.assert_allclose(ratio, math.sqrt(K), atol=1e-12)


def test_empirical_model_inverts_money_constraint():
    lv = ParetoLevels(gamma=1.5, k=30)
    model = empirical_threshold_model(lv)
    n0 = model(2.0)
    assert 0.0 < n0 < 2.0
    # splitting still helps, but by less than the sqrt-model guarantee
    ratio = multi_currency_threshold(4.0, 2, model).ratio
    assert 1.0 < ratio < math.sqrt(2.0)
    np.testing.assert_allclose(ratio, 1.047080, rtol=1e-4)


def test_money_at_theta_monotone():
    lv = ParetoLevels(gamma=1.5, k=10)
    assert money_at_theta(lv, 1.0) < money_at_theta(lv, 2.0)


def test_gdp_contribution():
    np.testing.assert_allclose(
        long_term_gdp_contribution(10.0, 100.0, 40.0, 20.0), 7.0)
    with pytest.raises(InputError):
        long_term_gdp_contribution(10.0, 100.0, 40.0, 0.5)


# ---------------------------------------------------------------------------
# two-level explosion scan


def test_economy_validation():
    with pytest.raises(InputError):
        TwoLevelEconomy(n1=50, n2=50, N=100, gamma_int=1.0)
    with pytest.raises(InputError):
        TwoLevelEconomy(n1=50, n2=50, N=100, gamma_int=2.0)
    with pytest.raises(InputError):
        TwoLevelEconomy(n1=0, n2=50, N=100, gamma_int=1.5)
    with pytest.raises(InputError, match="must not exceed 2"):
        TwoLevelEconomy(n1=2**52 + 1, n2=50, N=100, gamma_int=1.5)
    with pytest.raises(InputError):
        TwoLevelEconomy(n1=5, n2=5, N=10, gamma_int=1.5, sign_convention="xor")


def test_zero_temperature_minimizer_is_all_level_one():
    # energy part alone: E(N) = N - gamma N/2 < E(0) = 2N - gamma N/2
    eco = TwoLevelEconomy(n1=50, n2=50, N=100, gamma_int=1.5)
    values = social_functional(eco, 0.0)
    assert int(np.argmin(values)) == 100
    np.testing.assert_allclose(values[100], 100.0 - 1.5 * 100.0 / 2.0)
    np.testing.assert_allclose(values[0], 200.0 - 1.5 * 100.0 / 2.0)


def test_functional_shift_invariance_of_minimizer():
    eco = TwoLevelEconomy(n1=50, n2=50, N=100, gamma_int=1.5)
    values = social_functional(eco, 3.0)
    assert int(np.argmin(values)) == int(np.argmin(values + 42.0))


def test_symmetric_populations_drift_without_jump():
    """Equal populations relax smoothly: argmin moves one unit per step."""
    eco = TwoLevelEconomy(n1=50, n2=50, N=100, gamma_int=1.5)
    scan = social_explosion_scan(eco, np.linspace(0.0, 10.0, 200))
    assert scan.argmin_N1[0] == 100
    assert scan.T_star is None
    assert scan.jump_size == 1
    assert scan.kinetic_outburst is None


def test_asymmetric_populations_explode():
    """Skewed populations flip the minimizer across the whole range at T*."""
    eco = TwoLevelEconomy(n1=5, n2=95, N=100, gamma_int=1.5)
    scan = social_explosion_scan(eco, np.linspace(0.0, 10.0, 200))
    np.testing.assert_allclose(scan.T_star, 0.904522613065, rtol=1e-9)
    assert scan.jump_size == 93
    np.testing.assert_allclose(scan.kinetic_outburst, 86.025, rtol=1e-9)


def test_plus_convention_pins_the_minimizer():
    eco = TwoLevelEconomy(n1=50, n2=50, N=100, gamma_int=1.5,
                          sign_convention="plus")
    scan = social_explosion_scan(eco, np.linspace(0.0, 10.0, 50))
    assert set(scan.argmin_N1) == {100}


def test_scan_guard_and_grid_validation():
    eco_big = TwoLevelEconomy(n1=2, n2=2, N=5001, gamma_int=1.5)
    with pytest.raises(GuardExceeded):
        social_explosion_scan(eco_big, (0.0, 1.0))
    eco = TwoLevelEconomy(n1=5, n2=5, N=10, gamma_int=1.5)
    with pytest.raises(InputError):
        social_explosion_scan(eco, (1.0, 0.5))
    with pytest.raises(InputError):
        social_explosion_scan(eco, ())


def test_scan_identical_across_processes():
    code = (
        "import numpy as np\n"
        "from zerophase.condensation import TwoLevelEconomy, social_explosion_scan\n"
        "eco = TwoLevelEconomy(n1=5, n2=95, N=100, gamma_int=1.5)\n"
        "scan = social_explosion_scan(eco, np.linspace(0.0, 10.0, 200))\n"
        "print(repr((scan.T_star, scan.jump_size, scan.argmin_N1)))\n"
    )
    outputs = []
    for _ in range(2):
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True)
        outputs.append(out.stdout)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# the envelope scan against the exhaustive scan it replaced


def _exhaustive_scan(eco: TwoLevelEconomy, T_grid: np.ndarray) -> ExplosionScan:
    """Every split at every temperature, ties to the smallest N1."""
    e = condensation._energy_part(eco)
    s = condensation._log_multiplicity(eco)
    sign = -1.0 if eco.sign_convention == "minus" else 1.0
    mins = [int(np.argmin(e + sign * T * s)) for T in T_grid]
    T_star = None
    jump_size = 0
    outburst = None
    for j in range(1, len(mins)):
        step = abs(mins[j] - mins[j - 1])
        if step > jump_size:
            jump_size = step
        if T_star is None and step >= 0.9 * eco.N:
            T_star = float(T_grid[j])
            outburst = float(e[mins[j]] - e[mins[j - 1]])
    return ExplosionScan(T=tuple(float(T) for T in T_grid),
                         argmin_N1=tuple(mins),
                         E_parts=tuple(float(e[i]) for i in mins),
                         T_star=T_star,
                         jump_size=int(jump_size),
                         kinetic_outburst=outburst)


def _breakpoint_grid(eco: TwoLevelEconomy, T_max: float, count: int) -> np.ndarray:
    # T = 0, a uniform grid, and every breakpoint of the envelope in range:
    # there two lines tie in exact arithmetic, and the scan falls back
    sign = -1.0 if eco.sign_convention == "minus" else 1.0
    _, breaks = lower_envelope(sign * condensation._log_multiplicity(eco),
                               condensation._energy_part(eco))
    T = np.concatenate(([0.0], np.linspace(0.0, T_max, count),
                        breaks[(breaks >= 0) & (breaks <= T_max)]))
    return np.unique(T)


@settings(max_examples=60, deadline=None)
@given(n1=st.integers(1, 300), n2=st.integers(1, 300), N=st.integers(1, 300),
       gamma=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
       sign=st.sampled_from(("minus", "plus")), T_max=st.floats(0.01, 20.0),
       count=st.integers(1, 400))
def test_envelope_scan_equals_exhaustive_scan(n1, n2, N, gamma, sign, T_max, count):
    eco = TwoLevelEconomy(n1=n1, n2=n2, N=N, gamma_int=gamma,
                          sign_convention=sign)
    T = _breakpoint_grid(eco, T_max, count)
    assert social_explosion_scan(eco, T) == _exhaustive_scan(eco, T)


@pytest.mark.parametrize("n1,n2,N,gamma", [
    (5, 95, 100, 1.5), (50, 50, 100, 1.5), (5, 95, 5000, 1.5),
    (300, 4700, 5000, 1.2), (40, 60, 5000, 1.8)])
@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_envelope_certifies_the_scan_grids(n1, n2, N, gamma, sign):
    """On uniform grids the envelope certifies every temperature, also on
    the symmetric economy, where s(N1) and s(N - N1) differ in the last
    bits: the runner-up is found exactly, not bounded by a slope gap; at
    the breakpoints themselves it certifies none."""
    eco = TwoLevelEconomy(n1=n1, n2=n2, N=N, gamma_int=gamma,
                          sign_convention=sign)
    slopes = (-1.0 if sign == "minus" else 1.0) * condensation._log_multiplicity(eco)
    e = condensation._energy_part(eco)
    T = np.linspace(0.0, 10.0, 2000)
    owner, uncertified = envelope_argmin(slopes, e, T)
    assert not uncertified.any()
    assert social_explosion_scan(eco, T) == _exhaustive_scan(eco, T)
    _, breaks = lower_envelope(slopes, e)
    assert envelope_argmin(slopes, e, breaks)[1].all()


@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_envelope_certifies_lines_of_one_slope(sign):
    """With one agent per level every multiplicity is 1, so all N + 1 lines
    have slope 0.  One of them is the envelope; the others form an envelope
    of their own, whose lowest line is the exact runner-up, so no
    temperature is left to the exhaustive scan."""
    eco = TwoLevelEconomy(n1=1, n2=1, N=5000, gamma_int=1.5,
                          sign_convention=sign)
    slopes = condensation._log_multiplicity(eco)
    assert not slopes.any()
    T = np.linspace(0.0, 10.0, 20000)
    _, uncertified = envelope_argmin(slopes, condensation._energy_part(eco), T)
    assert not uncertified.any()
    assert social_explosion_scan(eco, T) == _exhaustive_scan(eco, T)
