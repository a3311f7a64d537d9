"""Mean-field gas: branch solving, continuation, and the transition."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zerophase import bose_gas
from zerophase.asymptotics import (convergence_scan, gibbs_fixed_point,
                                   kl_divergence, limit_F)
from zerophase.averaging import (AveragingKernel, check_resonance_free,
                                 polynomial_spectrum, probe_proposition3)
from zerophase.bose_gas import (BranchState, DispersionSpec, LevelSet,
                                RESIDUAL_TOL,
                                branch_points_near, build_levels,
                                continue_branch, discrete_energy,
                                dispersion_lambdas, entropy_and_capacity,
                                free_energy, hartree_residual,
                                log_multiplicity, scalar_scan_minima,
                                singular_exponent_fit, solve_branch,
                                solve_self_consistent, specific_entropy,
                                stability_check, theta_upper_bound,
                                zeroth_order_certificate, _gas_solution,
                                _mstar)
from zerophase.condensation import (DebtLedger, LongTermDebt, ParetoLevels,
                                    TwoLevelEconomy, condensate_excess,
                                    critical_number, debt_supply,
                                    empirical_threshold_model, money_at_theta,
                                    multi_currency_threshold,
                                    social_explosion_scan, social_functional,
                                    sqrt_threshold_model)
from zerophase.ensemble import (EnsembleState, closed_form_log_coeff,
                                ensemble_from_tuple, evolve_step,
                                init_product_state, oracle_evolve,
                                tuple_product_state)
from zerophase.entropy_flow import (EntropyField, FlowConfig,
                                    ascent_trajectory, calibrate_c,
                                    heat_semigroup_residual, hopf_lax)
from zerophase._numeric import brentq
from zerophase.errors import (BranchNotFound, BranchTerminated, InputError,
                              SolverError)

# reference instance used throughout: two levels, unit gap
LV = LevelSet.from_values((0.0, 1.0), 1.0, 2.0)


# ---------------------------------------------------------------------------
# construction and bookkeeping


def test_dispersion_sampling_symmetric_window():
    spec = DispersionSpec(epsilon=lambda p: p * p, L=2 * math.pi)
    np.testing.assert_allclose(dispersion_lambdas(spec), (4.0, 1.0, 0.0, 1.0, 4.0))


def test_duplicate_levels_violate_width_condition():
    spec = DispersionSpec(epsilon=lambda p: p * p, L=2 * math.pi)
    with pytest.raises(InputError, match="interaction width too large"):
        build_levels(spec, g=1.0, V=2.0, D=0.3)


def test_dispersion_requires_minimum_at_zero():
    with pytest.raises(InputError):
        dispersion_lambdas(DispersionSpec(epsilon=lambda p: -p * p, L=2 * math.pi))


def test_level_set_validation():
    with pytest.raises(InputError):
        LevelSet.from_values((0.0,), 1.0, 2.0)
    with pytest.raises(InputError):
        LevelSet((0.0, 1.0), g=-1.0, V=2.0, D=0.5)
    with pytest.raises(InputError, match="interaction width too large"):
        LevelSet((0.0, 1.0), g=1.0, V=2.0, D=1.0)
    # default width: half the smallest gap
    assert LevelSet.from_values((0.0, 0.4, 1.0), 1.0, 2.0).D == 0.2


def test_discrete_energy_and_multiplicity():
    np.testing.assert_allclose(discrete_energy(LV, (2, 0), 2), -1.0)
    np.testing.assert_allclose(discrete_energy(LV, (1, 1), 2), 1.0)
    # g=1, N=2 -> G=2 sublevels per level; (2,0) has C(3,2)=3 arrangements
    np.testing.assert_allclose(log_multiplicity(LV, (2, 0), 2), math.log(3.0),
                               rtol=1e-12)
    with pytest.raises(InputError):
        discrete_energy(LV, (1, 2), 2)


def test_log_multiplicity_rejects_negative_occupation():
    with pytest.raises(InputError, match="nonnegative"):
        log_multiplicity(LV, [-1, 5], 4)


def test_log_multiplicity_rejects_non_integer_occupation():
    for occ in ([1.5, 2.5], [math.nan, 4.0], [math.inf, 4.0]):
        with pytest.raises(InputError, match="integers"):
            log_multiplicity(LV, occ, 4)


def test_log_multiplicity_rejects_counts_beyond_2_52():
    with pytest.raises(InputError, match="must not exceed 2"):
        log_multiplicity(LV, [2**53, 0], 2**53)
    with pytest.raises(InputError, match="G must be a positive integer"):
        log_multiplicity(LV, [1, 3], 4, 2**53)


def test_log_multiplicity_rejects_non_integer_G():
    for G in (0, -2, 1.5, math.nan, math.inf):
        with pytest.raises(InputError, match="G must be a positive integer"):
            log_multiplicity(LV, [1, 3], 4, G)
    assert log_multiplicity(LV, [1, 3], 4, 2.0) == log_multiplicity(LV, [1, 3], 4, 2)


def test_free_energy_rejects_boundary_fractions():
    with pytest.raises(InputError):
        free_energy(LV, (0.0, 1.0), 0.2)
    with pytest.raises(InputError):
        free_energy(LV, (0.6, 0.6), 0.2)


def test_free_energy_nearly_symmetric_under_swap_at_tiny_gap():
    # exact level degeneracy is rejected, so probe the swap at gap 1e-9;
    # the free-energy difference is bounded by the gap itself
    lv = LevelSet.from_values((0.0, 1e-9), 1.0, 2.0)
    d = abs(free_energy(lv, (0.3, 0.7), 0.25) - free_energy(lv, (0.7, 0.3), 0.25))
    assert d < 1e-8


def test_entropy_of_uniform_fractions():
    lv = LevelSet.from_values((0.0, 0.5, 1.0), 1.0, 2.0)
    m = (1 / 3, 1 / 3, 1 / 3)
    direct = 3 * ((1 + 1 / 3) * math.log(1 + 1 / 3) - (1 / 3) * math.log(1 / 3))
    np.testing.assert_allclose(specific_entropy(lv, m), direct, rtol=1e-12)


# ---------------------------------------------------------------------------
# single-temperature solves


def test_fold_scale_closed_form():
    theta, g, V = 0.2, 1.0, 2.0
    expected = 0.5 * g * (math.sqrt(1.0 + 4.0 * theta / (V * g)) - 1.0)
    np.testing.assert_allclose(_mstar(LV, theta), expected, rtol=1e-12)


def test_upper_temperature_bound():
    np.testing.assert_allclose(theta_upper_bound(LV), 4.0, rtol=1e-12)


def test_reference_branch_point():
    """Frozen solve at theta=0.2 on the excited-seed branch."""
    st = solve_branch(LV, 0.2, 1)
    np.testing.assert_allclose(st.m, (0.0036291331010577, 0.9963708668989424),
                               rtol=1e-10)
    np.testing.assert_allclose(st.mu, -1.1317350738118748, rtol=1e-10)
    np.testing.assert_allclose(st.f, -0.27795770467509073, rtol=1e-10)
    np.testing.assert_allclose(st.s, 1.40780248281009, rtol=1e-10)
    np.testing.assert_allclose(st.margin, 0.9641005019672624, rtol=1e-8)
    assert st.stable
    assert hartree_residual(st, LV) < RESIDUAL_TOL


def test_ground_branch_concentrates_at_low_theta():
    st = solve_branch(LV, 0.2, 0)
    assert st.m[0] > 0.999999
    np.testing.assert_allclose(st.f, -1.2772589028142582, rtol=1e-10)


def test_unit_sum_and_stationarity_residuals():
    st = solve_branch(LV, 0.25, 1)
    m = np.asarray(st.m)
    assert abs(m.sum() - 1.0) < 1e-10
    phi = LV.as_array() - LV.V * m + 0.25 * np.log(m / (LV.g + m))
    assert np.abs(phi - st.mu).max() < RESIDUAL_TOL


def test_perturbed_point_has_visible_residual():
    st = solve_branch(LV, 0.2, 1)
    m = np.array(st.m)
    m[0] += 1e-2
    m /= m.sum()
    pert = dataclasses.replace(st, m=tuple(m))
    assert hartree_residual(pert, LV) > 1e-3


def test_branch_not_found_when_interaction_cannot_hold_it():
    # lambda_0 - lambda_1 + V = -3 <= 0: the seed level cannot condense
    lv = LevelSet.from_values((0.0, 5.0), 1.0, 2.0)
    with pytest.raises(BranchNotFound):
        solve_branch(lv, 0.2, 1)


def test_branch_terminates_above_fold():
    with pytest.raises(BranchTerminated):
        solve_branch(LV, 0.5, 1)  # theta_c is near 0.365


def test_stability_report_matches_state():
    st = solve_branch(LV, 0.3, 1)
    report = stability_check(st, LV)
    assert report.stable == st.stable is True
    np.testing.assert_allclose(report.margin, st.margin, rtol=1e-12)
    assert report.alphas[1] < 0 < report.alphas[0]


def test_self_consistent_agrees_with_branch_solver():
    # theta above the metastability bound: the whole simplex is convex.
    # Both solvers run the bordered Newton, so the reference is the
    # independent nested bisection.
    [m_ref] = _bisection_gas_states([(LV.lambdas, LV.g, LV.V, 5.0)])
    mu_ref = float(np.mean(LV.as_array() - LV.V * m_ref
                           + 5.0 * np.log(m_ref / (LV.g + m_ref))))
    for got in (solve_self_consistent(LV, 5.0, (0.5, 0.5)),
                solve_branch(LV, 5.0, 0)):
        np.testing.assert_allclose(got.m, m_ref, atol=1e-12)
        np.testing.assert_allclose(got.mu, mu_ref, rtol=1e-12)


def test_high_temperature_unique_and_near_softmax():
    """g=10 keeps the interaction correction under the 1e-3 budget."""
    lv = LevelSet.from_values((0.0, 1.0), 10.0, 2.0)
    theta = 50.0
    rng = np.random.default_rng(3)
    sols = []
    for _ in range(4):
        x = rng.uniform(0.05, 0.95)
        sols.append(solve_self_consistent(lv, theta, (1.0 - x, x)).m)
    for other in sols[1:]:
        assert np.abs(np.asarray(other) - np.asarray(sols[0])).max() < 1e-8
    soft = np.exp(-lv.as_array() / theta)
    soft /= soft.sum()
    assert np.abs((np.asarray(sols[0]) - soft) / soft).max() < 1e-3


def _bisection_gas_states(instances):
    """Gas states of (lambdas, g, V, theta) instances by nested bisection.

    The low root of phi00(m) = mu - lambda_n, with the target clamped to
    phi00(m*), is bisected in ln m over (0, m*); mu is bisected on the unit
    sum.  A gas state exists when the sum reaches 1 at min lambda +
    phi00(m*).  All instances are solved at once, one array entry per
    level; returns one m array, or None, per instance.
    """
    lam = np.concatenate([np.asarray(x[0], dtype=float) for x in instances])
    owner = np.repeat(np.arange(len(instances)), [len(x[0]) for x in instances])
    g, V, theta = (np.array([x[k] for x in instances], dtype=float)
                   for k in (1, 2, 3))
    mstar = 0.5 * g * (np.sqrt(1.0 + 4.0 * theta / (V * g)) - 1.0)

    def phi00(m, i):
        return -V[i] * m + theta[i] * np.log(m / (g[i] + m))

    top = phi00(mstar, np.arange(len(instances)))

    def low_roots(mu):
        target = np.minimum(mu[owner] - lam, top[owner])
        lo = np.full(lam.size, math.log(1e-300))
        hi = np.log(mstar)[owner]
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            below = phi00(np.exp(mid), owner) < target
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return np.exp(0.5 * (lo + hi))

    def total(mu):
        return np.bincount(owner, weights=low_roots(mu))

    lam_min = np.array([min(x[0]) for x in instances])
    mu_hi = lam_min + top
    exists = total(mu_hi) >= 1.0
    # every m_n < (g+1) exp((mu - lambda_n + V)/theta), so the sum is below 1
    mu_lo = lam_min - V - theta * np.log(2.0 * owner.size * (g + 1.0))
    for _ in range(100):
        mid = 0.5 * (mu_lo + mu_hi)
        over = total(mid) > 1.0
        mu_hi, mu_lo = np.where(over, mid, mu_hi), np.where(over, mu_lo, mid)
    m = low_roots(0.5 * (mu_lo + mu_hi))
    return [m[owner == i] if exists[i] else None for i in range(len(instances))]


def _gas_instances():
    # (levels, theta) with lambda_min != 0 for every other instance
    rng = np.random.default_rng(812)
    out = []

    def levels(K):
        lam = np.sort(rng.uniform(0.0, 10 ** rng.uniform(-2, 0.5), K))
        if len(out) % 2:
            lam += rng.uniform(-5.0, 5.0)
        return LevelSet.from_values(lam, 10 ** rng.uniform(-1, 1),
                                    rng.uniform(0.5, 4.0))

    # both sides of the metastability bound
    for _ in range(120):
        lv = levels(int(rng.integers(2, 33)))
        out.append((lv, theta_upper_bound(lv) * rng.uniform(0.02, 3.0)))
    # K m* just above 1, where the gas state stops existing
    for _ in range(60):
        K = int(rng.integers(2, 33))
        lv = levels(K)
        ms = (1.0 + 10 ** rng.uniform(-6, 0)) / K
        out.append((lv, lv.V * ms * (lv.g + ms) / lv.g))
    # gas states built with the ground fraction at 0.9-0.999 of m*
    for _ in range(80):
        K = int(rng.integers(2, 33))
        g, V = 10 ** rng.uniform(-1, 1), rng.uniform(0.5, 4.0)
        s = (1.0 + rng.uniform(0.05, 1.0)) / K
        mstar = s / rng.uniform(0.9, 0.999)
        theta = V * mstar * (g + mstar) / g
        q = s * (K - 1) / (1.0 - s)  # > 1: room for the others below s
        eps = rng.uniform(-1.0, 1.0, K - 1) * min(0.5, 0.4 * (q - 1.0))
        m = np.concatenate([[s], (1.0 - s) / (K - 1) * (1.0 + eps - eps.mean())])
        phi00 = -V * m + theta * np.log(m / (g + m))
        lam = rng.uniform(-5.0, 5.0) + phi00[0] - phi00
        out.append((LevelSet.from_values(lam, g, V), theta))
    # undamped steps leave the gas region and diverge from the uniform
    # start here (K = 25), and from the bare Boltzmann fraction below
    # (K = 27, three low levels near m*)
    out.append((LevelSet.from_values(
        (0.001, 0.035, 0.074, 0.243, 0.633, 0.724, 0.774, 0.888, 0.927, 1.013,
         1.121, 1.15, 1.193, 1.261, 1.425, 1.483, 1.566, 1.589, 1.685, 1.716,
         1.845, 2.101, 2.128, 2.196, 2.376),
        4.969271777621383, 1.0572286902527768), 0.4134522511847985))
    out.append((LevelSet.from_values(
        (-2.4217, -2.4161, -2.4115, -2.1733, -2.1727, -2.0337, -1.9093,
         -1.8362, -1.8209, -1.7651, -1.748, -1.7096, -1.6254, -1.5598,
         -1.5372, -1.3265, -1.2591, -1.2586, -1.2367, -1.1725, -1.157,
         -1.1017, -1.0858, -1.0226, -1.0171, -1.012, -0.9372),
        0.1192, 0.6091), 0.4967))
    return out


def test_gas_candidate_matches_nested_bisection():
    cases = _gas_instances()
    want = _bisection_gas_states([(lv.lambdas, lv.g, lv.V, theta)
                                  for lv, theta in cases])
    found, below_bound, shifted, top_ratio = 0, 0, 0, 0.0
    for (lv, theta), m_ref in zip(cases, want):
        try:
            m, _ = _gas_solution(lv, theta)
        except SolverError:
            m = None
        assert (m is None) == (m_ref is None), (lv, theta)
        if m is None:
            continue
        assert np.max(np.abs(m - m_ref)) < 1e-10, (lv, theta)
        found += 1
        below_bound += theta < theta_upper_bound(lv)
        shifted += min(lv.lambdas) != 0.0
        top_ratio = max(top_ratio, float(np.max(m)) / _mstar(lv, theta))
    # coverage: both outcomes, both sides of the bound, states near m*
    assert 100 < found < len(cases) - 40
    assert below_bound > 80 and found - below_bound > 40 and shifted > 80
    assert top_ratio > 0.99


def test_gas_solution_gives_up_within_the_newton_budget(monkeypatch):
    """Where K m* > 1 but no gas state exists, _gas_solution raises after
    at most one Newton run: _NEWTON_STEPS bordered solves."""
    cases = [(lv, theta) for lv, theta in _gas_instances()
             if bose_gas._alpha(lv, theta, 1.0 / lv.size) > 0]
    want = _bisection_gas_states([(lv.lambdas, lv.g, lv.V, theta)
                                  for lv, theta in cases])
    calls = []
    bordered_solve = bose_gas._bordered_solve

    def counted(*args):
        calls.append(1)
        return bordered_solve(*args)

    monkeypatch.setattr(bose_gas, "_bordered_solve", counted)
    missing = [case for case, m in zip(cases, want) if m is None]
    assert len(missing) > 20
    for lv, theta in missing:
        calls.clear()
        with pytest.raises(SolverError):
            _gas_solution(lv, theta)
        assert 1 <= len(calls) <= bose_gas._NEWTON_STEPS, (lv, theta)


@pytest.mark.parametrize("K", [2, 3, 5, 8, 16, 32])
def test_self_consistent_converges_from_any_start_above_the_bound(K):
    """Above theta_upper_bound the gas state is the only stationary point;
    the iteration reaches it from sparse Dirichlet(0.05) starts and from
    starts within 1e-12 to 1e-2 of a vertex."""
    rng = np.random.default_rng(100 + K)
    for _ in range(4):
        lam = np.sort(rng.uniform(0.0, 10 ** rng.uniform(-2, 0.5), K))
        lv = LevelSet.from_values(lam + rng.uniform(-5.0, 5.0),
                                  10 ** rng.uniform(-1, 1), rng.uniform(0.5, 4.0))
        theta = theta_upper_bound(lv) * rng.uniform(1.0, 3.0)
        m_ref, _ = _gas_solution(lv, theta)
        starts = [np.maximum(rng.dirichlet(np.full(K, 0.05)), 1e-300)
                  for _ in range(6)]
        for n in rng.choice(K, size=min(K, 4), replace=False):
            eps = 10 ** rng.uniform(-12, -2)
            start = np.full(K, eps / (K - 1))
            start[n] = 1.0 - eps
            starts.append(start)
        for start in starts:
            got = solve_self_consistent(lv, theta, start)
            np.testing.assert_allclose(got.m, m_ref, rtol=1e-12, atol=0)


def test_self_consistent_from_an_excited_vertex():
    # the unit-sum row is linear in m, so the first step grows the starved
    # ground fraction many e-folds past 1; cut back, the iteration converges
    lv = LevelSet.from_values((-4.1418, -2.8083, -2.468), 4.768, 0.9802)
    theta = 1.25 * theta_upper_bound(lv)
    m_ref, _ = _gas_solution(lv, theta)
    for n in (1, 2):
        for eps in (1e-8, 1e-4):
            start = np.full(3, 0.5 * eps)
            start[n] = 1.0 - eps
            got = solve_self_consistent(lv, theta, start)
            np.testing.assert_allclose(got.m, m_ref, rtol=1e-12, atol=0)


def test_self_consistent_converges_on_the_last_newton_step(monkeypatch):
    """The residual first falls below 1e-12 at iterate 11, so the polish
    is the last step of the budget; the iterate it makes is the state."""
    lv = LevelSet.from_values(
        (0.14780319083501728, 0.24773546922512152, 0.3072667987031084,
         0.416673110983993, 0.8016903907590592, 0.8827774080498574,
         0.8879433292772736, 1.2633249246897624),
        1.3277454027745075, 0.9278618580444193)
    theta = 1.6335068289228154  # 1.0042 theta_upper_bound
    m_ref, _ = _gas_solution(lv, theta)
    eps = 5.117418350598668e-07
    start = np.full(8, eps / 7)
    start[4] = 1.0 - eps
    calls = []
    bordered_solve = bose_gas._bordered_solve

    def counted(*args):
        calls.append(1)
        return bordered_solve(*args)

    monkeypatch.setattr(bose_gas, "_bordered_solve", counted)
    got = solve_self_consistent(lv, theta, start)
    assert len(calls) == bose_gas._NEWTON_STEPS
    np.testing.assert_allclose(got.m, m_ref, rtol=1e-14, atol=0)


def test_ground_gas_state_where_the_top_target_rounds_up():
    # 1.1 x theta_upper_bound, so the problem is convex; a nested search
    # whose top target (min lambda + phi00(m*)) - lambda_0 rounds above
    # phi00(m*) finds no root there
    lv = LevelSet.from_values((0.27, 1.27), 1.0, 2.0)
    st = solve_branch(lv, 4.4, 0)
    [m_ref] = _bisection_gas_states([(lv.lambdas, lv.g, lv.V, 4.4)])
    np.testing.assert_allclose(st.m, m_ref, atol=1e-12)
    np.testing.assert_allclose(st.m, (0.62358, 0.37642), atol=1e-5)
    assert hartree_residual(st, lv) < 1e-14


NAN, INF = float("nan"), float("inf")
_PARETO = ParetoLevels(gamma=1.5, k=10)
_ECONOMY = TwoLevelEconomy(n1=5, n2=95, N=100, gamma_int=1.5)
_FIELD = EntropyField.from_function(lambda x: -x * x, (-1.0,), (0.1,), (21,))


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: continue_branch(LV, 1, [0.1, NAN, 0.3]),
                 InputError, "finite", id="grid-nan"),
    pytest.param(lambda: continue_branch(LV, 1, [0.1, 0.2, INF]),
                 InputError, "finite", id="grid-inf"),
    pytest.param(lambda: solve_branch(LV, INF, 1),
                 InputError, "finite", id="branch-inf"),
    pytest.param(lambda: solve_branch(LV, NAN, 0),
                 InputError, "finite", id="branch-nan"),
    pytest.param(lambda: solve_self_consistent(LV, INF, (0.5, 0.5)),
                 InputError, "finite", id="fixed-point-inf"),
    pytest.param(lambda: solve_self_consistent(LV, 5.0, (NAN, 0.5)),
                 InputError, "positive", id="fixed-point-nan-guess"),
    pytest.param(lambda: free_energy(LV, (0.5, 0.5), NAN),
                 InputError, "finite", id="free-energy-nan"),
    pytest.param(lambda: free_energy(LV, (NAN, 0.5), 1.0),
                 InputError, "positive", id="fractions-nan"),
    pytest.param(lambda: LevelSet.from_values((0.0, 1.0), INF, 2.0),
                 InputError, "finite", id="levels-inf-g"),
    pytest.param(lambda: LevelSet.from_values((0.0, 1.0), 1.0, INF),
                 InputError, "finite", id="levels-inf-V"),
    pytest.param(lambda: solve_branch(LevelSet.from_values((0.0, 1.0), 1e20,
                                                           2.0), 0.5, 1),
                 SolverError, "m\\* cancels", id="mstar-cancels"),
    pytest.param(lambda: critical_number(_PARETO, NAN),
                 InputError, "finite", id="critical-number-nan"),
    pytest.param(lambda: money_at_theta(_PARETO, INF),
                 InputError, "finite", id="money-inf"),
    pytest.param(lambda: social_functional(_ECONOMY, NAN),
                 InputError, "finite", id="social-nan"),
    pytest.param(lambda: social_explosion_scan(_ECONOMY, [0.0, 1.0, NAN]),
                 InputError, "finite", id="social-grid-nan"),
    pytest.param(lambda: evolve_step(init_product_state((1.0, 1.0), 2),
                                     (0.0, 1.0), NAN),
                 InputError, "beta must be finite", id="evolve-beta-nan"),
    pytest.param(lambda: limit_F((1.0, 1.0), (0.0, 1.0), NAN, 1),
                 InputError, "beta must be finite", id="limit-beta-nan"),
    pytest.param(lambda: gibbs_fixed_point((0.0, 1.0), INF),
                 InputError, "beta must be finite", id="gibbs-beta-inf"),
    pytest.param(lambda: closed_form_log_coeff((1.0, 1.0), (0.0, 1.0), NAN, 2,
                                               1, (1, 1)),
                 InputError, "beta must be finite", id="closed-form-beta-nan"),
    pytest.param(lambda: oracle_evolve(tuple_product_state((1.0, 1.0), 2),
                                       (0.0, 1.0), NAN),
                 InputError, "beta must be finite", id="oracle-evolve-beta-nan"),
    pytest.param(lambda: ensemble_from_tuple(tuple_product_state((1.0, 1.0), 2),
                                             step=-1),
                 InputError, "step must be a nonnegative integer",
                 id="state-step-negative"),
    pytest.param(lambda: init_product_state((1.0, 1.0), 2.5),
                 InputError, "M must be a positive integer", id="product-M-2.5"),
    pytest.param(lambda: convergence_scan((1.0, 1.0), (0.0, 1.0), 1.0, 1.5,
                                          (5,)),
                 InputError, "n must be a nonnegative integer", id="scan-n-1.5"),
    pytest.param(lambda: AveragingKernel.linear(A=NAN),
                 InputError, "A must be finite", id="linear-kernel-A-nan"),
    pytest.param(lambda: probe_proposition3(1, 3, 2.5, 2, 0),
                 InputError, "trials must be a positive integer",
                 id="probe-trials-2.5"),
    pytest.param(lambda: polynomial_spectrum((1.0, 2.0), 2.5),
                 InputError, "N must be a positive integer",
                 id="polynomial-N-2.5"),
    pytest.param(lambda: DispersionSpec(epsilon=lambda p: p * p, L=NAN),
                 InputError, "L must be finite", id="dispersion-L-nan"),
    pytest.param(lambda: scalar_scan_minima(LV, NAN),
                 InputError, "theta must be finite", id="scan-minima-nan"),
    pytest.param(lambda: singular_exponent_fit(
                     LV, [solve_branch(LV, th, 1)
                          for th in np.linspace(0.2, 0.3, 8)], NAN),
                 InputError, "theta_c must be finite", id="exponent-fit-nan"),
    pytest.param(lambda: FlowConfig(dt=NAN),
                 InputError, "dt must be finite", id="flow-dt-nan"),
    pytest.param(lambda: hopf_lax(_FIELD, INF),
                 InputError, "t must be finite", id="hopf-lax-inf"),
    pytest.param(lambda: heat_semigroup_residual(_FIELD, INF),
                 InputError, "t must be finite", id="heat-residual-inf"),
    pytest.param(lambda: ascent_trajectory(_FIELD, FlowConfig(), (NAN,)),
                 InputError, "x0 must be a point of the sampled box", id="ascent-x0-nan"),
    pytest.param(lambda: EntropyField((NAN,), (0.1,), np.zeros(5)),
                 InputError, "origin must be finite", id="field-origin-nan"),
    pytest.param(lambda: EntropyField((0.0,), (NAN,), np.zeros(5)),
                 InputError, "spacing must be finite", id="field-spacing-nan"),
    pytest.param(lambda: ParetoLevels(gamma=NAN, k=10),
                 InputError, "gamma must be finite", id="pareto-gamma-nan"),
    pytest.param(lambda: debt_supply(DebtLedger(), NAN),
                 InputError, "sigma_avg must be finite", id="sigma-avg-nan"),
    pytest.param(lambda: LongTermDebt(300.0, INF),
                 InputError, "years must be finite", id="long-term-years-inf"),
    pytest.param(lambda: condensate_excess(_PARETO, 1.0, NAN),
                 InputError, "N must be finite", id="condensate-N-nan"),
    pytest.param(lambda: multi_currency_threshold(INF, 2,
                                                  sqrt_threshold_model()),
                 InputError, "M_total must be finite", id="currency-M-inf"),
    pytest.param(lambda: empirical_threshold_model(_PARETO)(NAN),
                 InputError, "money supply M must be finite",
                 id="empirical-money-nan"),
    pytest.param(lambda: TwoLevelEconomy(n1=5, n2=95, N=True, gamma_int=1.5),
                 InputError, "N must be a positive integer", id="economy-N-bool"),
    *[pytest.param(lambda index=index: gibbs_fixed_point((0.0, 1.0), 1.0,
                                                         support=[index]),
                   InputError, "support index must be a nonnegative integer",
                   id=f"gibbs-support-{index}")
      for index in (1.5, True, "a", NAN)],
    *[pytest.param(lambda seed=seed: probe_proposition3(1, 3, 2, 2, seed),
                   InputError, "seed must be a nonnegative integer",
                   id=f"probe-seed-{seed}")
      for seed in (-1, 1.5, "a", None)],
    pytest.param(lambda: polynomial_spectrum((1.0, INF), 3),
                 InputError, "polynomial coefficient must be finite",
                 id="polynomial-coefficient-inf"),
    # finite coefficients whose sum overflows to inf, or to inf - inf
    pytest.param(lambda: polynomial_spectrum((1e308, 1e308), 3),
                 InputError, "spectrum values must be finite",
                 id="polynomial-sum-overflow"),
    pytest.param(lambda: polynomial_spectrum((1e308, -1e308, 1e308), 3),
                 InputError, "spectrum values must be finite",
                 id="polynomial-sum-invalid"),
    pytest.param(lambda: calibrate_c(0.1, _FIELD, _FIELD, (0.5,), "bogus"),
                 InputError, "boundary must be one of", id="calibrate-boundary"),
    pytest.param(lambda: kl_divergence([NAN, 1.0], [0.5, 0.5]),
                 InputError, "weights must be finite", id="kl-nan"),
    pytest.param(lambda: kl_divergence([0.5, 0.5], [-0.5, 1.5]),
                 InputError, "weights must be finite", id="kl-negative"),
    pytest.param(lambda: kl_divergence([0.5, 0.5], [1.0]),
                 InputError, "equal length", id="kl-length"),
    pytest.param(lambda: kl_divergence([0.0, 0.0], [0.5, 0.5]),
                 InputError, "empty support", id="kl-all-zero"),
    pytest.param(lambda: log_multiplicity(LV, (1, 1, 1), 3),
                 InputError, "occupation length", id="multiplicity-length"),
    pytest.param(lambda: log_multiplicity(LV, (0, 0), 0),
                 InputError, "N must be a positive integer",
                 id="multiplicity-N-zero"),
    pytest.param(lambda: log_multiplicity(LV, (1, 0), True),
                 InputError, "N must be a positive integer",
                 id="multiplicity-N-bool"),
    pytest.param(lambda: discrete_energy(LV, (0, 0), 0),
                 InputError, "N must be a positive integer", id="energy-N-zero"),
    pytest.param(lambda: discrete_energy(LV, (1, 0), True),
                 InputError, "N must be a positive integer", id="energy-N-bool"),
    pytest.param(lambda: EnsembleState(l=2, M=0, log_coeffs=np.zeros(1)),
                 InputError, "M must be a positive integer", id="ensemble-M-zero"),
    pytest.param(lambda: convergence_scan((1.0, 1.0), (0.0, 1.0), 1.0, 1, ()),
                 InputError, "M_list must be nonempty", id="scan-no-sizes"),
    pytest.param(lambda: limit_F((1.0, 1.0), (0.0, 1.0, 2.0), 1.0, 1),
                 InputError, "g and spectrum must have equal length",
                 id="limit-length"),
])
def test_non_finite_and_extreme_inputs_raise_typed_errors(call, error, match,
                                                          capfd):
    with pytest.raises(error, match=match):
        call()
    assert capfd.readouterr().err == ""


def test_boundary_inputs_that_stay_valid():
    assert math.isfinite(free_energy(LV, (0.5, 0.5), 0.0))
    assert social_functional(_ECONOMY, 0.0).shape == (_ECONOMY.N + 1,)
    assert log_multiplicity(LV, [1, 3], 4, 2.0) == log_multiplicity(LV, [1, 3], 4, 2)
    grid = np.geomspace(0.01, 0.3, 8)
    assert continue_branch(LV, 1.0, grid) == continue_branch(LV, 1, grid)
    # integral floats are stored as the ints the count gate returns
    spec = DispersionSpec(epsilon=lambda p: p * p, L=2 * math.pi, n_max=2.0)
    assert (spec.n_max, dispersion_lambdas(spec).tolist()) == (2, [4.0, 1.0, 0.0, 1.0, 4.0])
    assert repr(TwoLevelEconomy(n1=5.0, n2=95.0, N=100.0, gamma_int=1.5)) == repr(_ECONOMY)
    assert FlowConfig(steps=5.0).steps == 5
    state = EnsembleState(l=2.0, M=4.0, log_coeffs=np.zeros(5), step=1.0)
    assert repr((state.l, state.M, state.step)) == "(2, 4, 1)"
    # the resonance bound is stamped into the spectrum: no integral floats
    with pytest.raises(InputError, match="bound K"):
        check_resonance_free((1.0, 2.0, 3.0), 2.0)


@pytest.mark.parametrize("lam, g, V, l", [
    # the low root's bracket end lo/(g+lo) rounds to 0, where the log is
    # undefined
    ((0.1284276790234642, 0.48014595134485405, 0.5366912365444099,
      0.7748193460357062, 0.8280057181830378, 1.2330535823504953,
      1.8662973824995615), 6.133082156713804, 3.3337671845339676, 5),
    # a denormal low root makes m (g+m) round to 0 in the polish
    ((0.33759066563222384, 0.39792688998811854, 0.927484893309193,
      1.0144678470872448, 1.138058742469417, 1.3155071199356307,
      1.6413197864478544, 1.88891672523932), 0.37742688323744716,
     0.57216900432707, 0),
])
def test_low_root_underflow_raises_solver_error(lam, g, V, l):
    lv = LevelSet.from_values(lam, g, V)
    theta = 1e-3 * theta_upper_bound(lv)
    with pytest.raises(SolverError):
        solve_branch(lv, theta, l)
    # the continuation drops exactly the leading points that do not solve
    grid = np.geomspace(theta, 1000 * theta, 42)
    first = grid.tolist().index(continue_branch(lv, l, grid).states[0].theta)
    assert first > 0
    for cold in grid[:first]:
        with pytest.raises(SolverError):
            solve_branch(lv, float(cold), l)


def _low_root_oracle(levels, theta, target, mstar):
    """One low root as _low_roots found it before its Brent iteration was
    written out: brentq on a callable, then three Newton steps."""
    g, V = levels.g, levels.V

    def phi(m):
        return -V * m + theta * math.log(m / (g + m))

    top = phi(mstar)
    if target > top:
        raise SolverError("no root on the increasing segment")
    if target == top:
        return mstar
    guess = g * math.exp(min(target / theta, 700.0))
    if guess == 0.0:
        raise SolverError("occupation underflow; temperature too low to track")
    if guess < 0.01 * mstar:
        lo, hi = 0.25 * guess, min(8.0 * guess, mstar)
        while phi(hi) < target:
            hi = min(hi * 8.0, mstar)
            if hi == mstar:
                break
    else:
        lo, hi = min(guess * 0.5, 0.5 * mstar), mstar
    lo = max(lo, 5e-324)
    while lo / (g + lo) == 0.0 or phi(lo) > target:
        lo *= 0.25
        if lo < 1e-320:
            raise SolverError("low-root bracketing failed")
    m = brentq(lambda x: phi(x) - target, lo, hi,
               xtol=1e-300, rtol=8.9e-16, maxiter=200)
    for _ in range(3):
        r = phi(m) - target
        den = m * (g + m)
        if den == 0.0:
            break
        a = -V + theta * g / den
        if a <= 0:
            break
        step = r / a
        if m - step <= 0:
            break
        m -= step
    return float(m)


def _root_or_error(fn, *args):
    try:
        return fn(*args)
    except (SolverError, ValueError) as e:
        return type(e).__name__, str(e)


@settings(max_examples=300, deadline=None)
@example(V=3.3337671845339676, g=6.133082156713804, theta_ratio=1e-3,
         offsets=[0.0, 1e-300, 1.0, 60.0, 700.0])  # the underflow test's gas
@given(V=st.floats(0.1, 4.0), g=st.floats(0.05, 8.0),
       theta_ratio=st.floats(1e-3, 1.0),
       offsets=st.lists(st.one_of(st.floats(-1.0, 2000.0),
                                  st.sampled_from([0.0, 5e-324, 1e-300])),
                        min_size=1, max_size=8))
def test_low_roots_equal_brentq_on_a_callable(V, g, theta_ratio, offsets):
    # targets at, just below and far below the top of the segment, and a
    # few above it; deep ones underflow or fail to bracket
    lv = LevelSet.from_values((0.0, 1.0), g, V)
    theta = theta_ratio * theta_upper_bound(lv)
    mstar = _mstar(lv, theta)
    top = bose_gas._phi00(lv, theta, mstar)
    targets = [top - d * theta for d in offsets]

    def oracle(levels, theta, targets, mstar):
        return [_low_root_oracle(levels, theta, t, mstar) for t in targets]

    assert (_root_or_error(bose_gas._low_roots, lv, theta, targets, mstar)
            == _root_or_error(oracle, lv, theta, targets, mstar))


def test_denormal_occupation_overflows_alpha_silently():
    # at the first grid point a low root is denormal, so alpha = -V +
    # theta g/(m (g+m)) overflows to +inf, its limit; the state is unstable
    # there, and no overflow warning may escape on the way.  The walk starts
    # at the first grid point that solves, and the certificate holds.
    lv = LevelSet.from_values(
        (0.09958292371652822, 0.38449306451449705, 0.4202880606357171,
         0.4784893731503794), 2.350308821157822, 1.9577011050974304)
    grid = _certificate_grid(lv)
    assert bose_gas._branch_alive(lv, float(grid[0]), 2, None) is None
    assert continue_branch(lv, 2, grid).states[0].theta > grid[0]
    cert = zeroth_order_certificate(lv, 2)
    assert cert.jump > 0 and 0 < cert.theta_c < theta_upper_bound(lv)


def test_scan_oracle_locates_both_minima():
    st1 = solve_branch(LV, 0.2, 1)
    st0 = solve_branch(LV, 0.2, 0)
    minima = np.asarray(scalar_scan_minima(LV, 0.2))
    assert minima.size == 2
    for target in (st0.m[1], st1.m[1]):
        assert np.min(np.abs(minima - target)) < 1e-3


# ---------------------------------------------------------------------------
# continuation and the transition


def test_certificate_frozen_values():
    cert = zeroth_order_certificate(LV, 1)
    np.testing.assert_allclose(cert.theta_c, 0.365177783898, rtol=1e-6)
    np.testing.assert_allclose(cert.jump, 0.983963011078, rtol=1e-6)
    assert cert.jump > 0
    assert cert.f_meta > cert.f_ground


def test_certificate_rejects_ground_seed():
    with pytest.raises(InputError):
        zeroth_order_certificate(LV, 0)


def test_continuation_is_monotone_and_warm_start_consistent():
    grid = np.geomspace(0.05, 0.36, 12)
    cont = continue_branch(LV, 1, grid)
    ml = np.array([st.m[1] for st in cont.states])
    assert (np.diff(ml) <= 0).all()
    # a cold solve at a grid point reproduces the warm-started state
    cold = solve_branch(LV, float(cont.states[5].theta), 1)
    np.testing.assert_allclose(cold.m, cont.states[5].m, rtol=1e-9)


def _certificate_grid(lv: LevelSet) -> np.ndarray:
    hi = theta_upper_bound(lv)
    return np.geomspace(1e-3 * hi, hi, 48)


def _bench_levels(seed: int, K: int) -> LevelSet:
    # the jittered levels of the benchmark's bose_levels ops, drawn for
    # K = 2, 8 and 32 in turn from one generator
    rng = np.random.default_rng(seed)
    for k in (2, 8, 32):
        lam = np.linspace(0.0, 1.0, k)
        lam[1:] += rng.uniform(-0.25, 0.25, k - 1) / (k - 1)
        if k == K:
            return LevelSet.from_values(lam, 1.0, 2.0)
    raise ValueError(K)


def _outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # the outcome compared may be any error
        return f"{type(exc).__name__}: {exc}"


def test_fold_matches_two_level_closed_form():
    # with m = (1 - x, x), stationarity gives theta(x) in closed form; the
    # fold is its maximum
    def theta_of(x: float) -> float:
        return ((1.0 + 2.0 * (1.0 - 2.0 * x))
                / (math.log((1.0 - x) / (2.0 - x)) - math.log(x / (1.0 + x))))

    x_f, theta_c = 0.9114911521612524, 0.3651777849841649
    assert abs(theta_of(x_f) - theta_c) <= 2 * math.ulp(theta_c)
    assert theta_of(x_f - 1e-6) < theta_c and theta_of(x_f + 1e-6) < theta_c
    # from the last live point of the certificate grid
    grid = _certificate_grid(LV)
    start = solve_branch(LV, float(grid[grid < theta_c][-1]), 1)
    assert abs(bose_gas._fold_theta(LV, start) - theta_c) <= 4 * math.ulp(theta_c)


@pytest.mark.parametrize("K", [2, 8, 32])
def test_bisection_solves_no_midpoint_past_the_fold(K, monkeypatch):
    """The benchmark's certificate continuations, seeds 0-9: the fold is
    sought once and accepted, the bisected theta_c lies below it by less
    than 1e-8 relative, every solved temperature below it is alive and
    every one above it dead, and none lies past the 1e-9 band: the fold
    decides the first dead grid point too."""
    calls, folds = [], []
    alive, fold = bose_gas._branch_alive, bose_gas._fold_theta

    def record_alive(levels, theta, l, hint):
        st = alive(levels, theta, l, hint)
        calls.append((theta, st is not None))
        return st

    def record_fold(levels, st):
        folds.append(fold(levels, st))
        return folds[-1]

    monkeypatch.setattr(bose_gas, "_branch_alive", record_alive)
    monkeypatch.setattr(bose_gas, "_fold_theta", record_fold)
    for seed in range(10):
        lv = _bench_levels(seed, K)
        grid = _certificate_grid(lv)
        calls.clear()
        folds.clear()
        cont = continue_branch(lv, K - 1, grid)
        (theta_f,) = folds
        assert 0 < (theta_f - cont.theta_c) / theta_f < 1e-8, seed
        assert all(ok == (theta < theta_f) for theta, ok in calls), seed
        past = [theta for theta, _ in calls if theta > theta_f * (1 + 1e-9)]
        assert past == [], seed


# the benchmark's certificates, the README instance (gap 1) and the level
# gaps of acceptance criterion 6; at gaps 0.2, 0.1 and 0.05 the fold Newton
# fails from the last grid state and converges from a live midpoint
CERTIFICATE_CASES = (
    [(f"bench{seed}_K{K}", _bench_levels(seed, K), K - 1)
     for K in (2, 8, 32) for seed in range(10)]
    + [(f"gap{d}", LevelSet.from_values((0.0, d), 1.0, 2.0), 1)
       for d in (1.0, 0.5, 0.2, 0.1, 0.05)])


@pytest.mark.parametrize("name,lv,l", CERTIFICATE_CASES,
                         ids=[case[0] for case in CERTIFICATE_CASES])
def test_certificate_matches_the_continuation_route(name, lv, l):
    """The certificate's fold-decided bisection against the continuation
    that solves every live midpoint: the same theta_c and ground solve, and
    f_meta from a solve at theta_c with another hint, so within rounding.
    The jump's rounding is that of f, not of the jump itself."""
    cert = zeroth_order_certificate(lv, l)
    want = bose_gas._continuation_and_certificate(lv, l)[1]
    assert cert.theta_c == want.theta_c
    assert cert.f_ground == want.f_ground
    assert abs(cert.f_meta - want.f_meta) <= 1e-14 * abs(want.f_meta)
    assert abs(cert.jump - want.jump) <= 1e-14 * abs(want.f_meta)


def _law_r(draw: int) -> tuple:
    """(levels, seed level) of draw `draw` (0-based) of the random law:
    numpy default_rng(7) draws in turn K from U{2..32}, K sorted levels from
    U(0, 2), g = e^U(-2, 2), V = e^U(-1, 1.5) and l from U{1..K-1}."""
    rng = np.random.default_rng(7)
    for _ in range(draw + 1):
        K = int(rng.integers(2, 33))
        lam = np.sort(rng.uniform(0.0, 2.0, K))
        g, V = np.exp(rng.uniform(-2.0, 2.0)), np.exp(rng.uniform(-1.0, 1.5))
        l = int(rng.integers(1, K))
    return LevelSet.from_values(lam, float(g), float(V)), l


# draws whose fold Newton meets a denormal tail, where 1/alpha vanishes and
# the margin row overflows; None marks the draw whose grid underflows
@pytest.mark.parametrize("draw,theta_c", [
    (132, 0.03482404705248221), (303, 0.005475642189636645), (862, None),
    (897, 0.004260558300624103), (1696, 0.02433631404578702)])
def test_fold_newton_leaks_no_warning(draw, theta_c):
    lv, l = _law_r(draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if theta_c is None:
            with pytest.raises(SolverError, match="occupation underflow; "
                                                  "temperature too low to track"):
                zeroth_order_certificate(lv, l)
        else:
            assert zeroth_order_certificate(lv, l).theta_c == theta_c


# the ground solve of draw 1082 near the cold end of its certificate grid
# fails its residual check; a numpy scalar theta once leaked an overflow
# warning from the root polish there instead of the typed error
@pytest.mark.parametrize("as_theta", [float, np.float64])
def test_solve_branch_numpy_theta_raises_the_typed_error(as_theta):
    lv, _ = _law_r(1082)
    theta = as_theta(0.0018147 * theta_upper_bound(lv))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="branch residual 6.266e-03 "
                                              "exceeds tolerance"):
            solve_branch(lv, theta, lv.ground)


# a seeded sample (default_rng(22)) of the 144 draws among the first 400
# whose certificate raised "branch has no solution on the given grid" when
# the walk required the first grid point to solve, and the three of them
# that still raise it
@pytest.mark.parametrize("draw", [10, 39, 71, 95, 118, 144, 195, 264, 269, 307,
                                  367, 397, 112, 168, 200])
def test_certificate_walks_from_the_first_solvable_point(draw):
    lv, l = _law_r(draw)
    try:
        cert = zeroth_order_certificate(lv, l)
    except BranchTerminated as err:
        assert str(err) == "branch has no solution on the given grid"
        assert all(bose_gas._branch_alive(lv, float(theta), l, None) is None
                   for theta in _certificate_grid(lv))
    else:
        assert cert.jump > 0 and 0 < cert.theta_c < theta_upper_bound(lv)


def test_certificate_solve_budget(monkeypatch):
    """A certificate solves the branch cold at the first grid point, at a
    first dead grid point that the fold does not decide, at the midpoints
    inside the fold's 1e-9 band and at theta_c, and solves the ground state:
    on the benchmark's certificates the fold decides the first dead grid
    point, so 3 solves, 4 where a midpoint falls in the band; 6 at most on
    any case."""
    solves = []
    solve = bose_gas.solve_branch

    def counted(*args, **kwargs):
        solves.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(bose_gas, "solve_branch", counted)
    for name, lv, l in CERTIFICATE_CASES:
        solves.clear()
        zeroth_order_certificate(lv, l)
        assert len(solves) <= 6, (name, solves)
        if name.startswith("bench"):
            # bench5_K32's bisection puts one midpoint inside the band
            assert len(solves) == 3 + (name == "bench5_K32"), (name, solves)


@pytest.mark.parametrize("lv,l", [
    (LV, 1), (LevelSet.from_values((0.0, 0.6, 1.0), 1.0, 2.0), 2),
    (LevelSet.from_values((0.0, 0.6, 1.0), 1.0, 2.0), 1),
    *[(_bench_levels(seed, K), K - 1) for K in (2, 8) for seed in range(3)],
    (_bench_levels(0, 32), 31)])
def test_corrector_states_match_cold_solves(lv, l, monkeypatch):
    """Every live grid state after the first comes from the predictor and
    corrector, and agrees with a cold solve_branch to 1e-12 relative."""
    accepted = []
    corrected = bose_gas._corrected_state

    def record(*args):
        st = corrected(*args)
        if st is not None:
            accepted.append(st)
        return st

    monkeypatch.setattr(bose_gas, "_corrected_state", record)
    cont = continue_branch(lv, l, _certificate_grid(lv))
    grid = set(_certificate_grid(lv).tolist())
    live = [st for st in cont.states if st.theta in grid]
    assert accepted == live[1:]
    for st in accepted:
        cold = solve_branch(lv, st.theta, l)
        np.testing.assert_allclose(st.m, cold.m, rtol=1e-12, atol=0)
        assert hartree_residual(st, lv) < RESIDUAL_TOL
        assert st.stable and st.margin > 0


# a ground branch that passes a fold near theta 1.40601 and lives on to
# 1.45475 on the root by the edge x = m*
GROUND_PAST_FOLD = (LevelSet.from_values(
    (1.1826693154335388, 1.1924710387349582, 1.3216946919518107,
     1.4401362041943608), 0.4172575722024908, 2.375229430097366), 0, 38)


def test_ground_branch_can_outlive_a_fold():
    lv, l, n = GROUND_PAST_FOLD
    hi = theta_upper_bound(lv)
    grid = np.geomspace(1e-3 * hi, hi, n)
    cont = continue_branch(lv, l, grid)
    assert cont.theta_c == pytest.approx(1.4547547811685053, rel=1e-12)
    last_grid = [st for st in cont.states if st.theta in grid][-1]
    theta_f = bose_gas._fold_theta(lv, last_grid)
    assert last_grid.theta < theta_f < 0.97 * cont.theta_c


def test_fold_solve_rejects_a_maximum_of_the_defect():
    # from this ground branch's last live grid state (theta 1.0027) the
    # Newton converges near theta 1.08205 to a maximum of the unit-sum
    # defect, where two roots left of the branch meet; the branch itself
    # lives on to 1.12594
    lv = LevelSet.from_values(
        (0.4657689209030833, 0.5257956933246726, 0.5884146898111358,
         0.6131237967324228, 1.3782185638140119, 1.6414356462311808),
        0.7745632356211318, 2.5532823042237185)
    hi = theta_upper_bound(lv)
    grid = np.geomspace(1e-3 * hi, hi, 48)
    cont = continue_branch(lv, 0, grid)
    assert cont.theta_c == pytest.approx(1.1259381008157476, rel=1e-12)
    last_grid = [st for st in cont.states if st.theta in grid][-1]
    assert bose_gas._fold_theta(lv, last_grid) is None


def test_fold_newton_stops_where_dtheta_is_undefined():
    # at m = (1/2, 1/2) with theta g = m (g+m), alpha = 1/2 on both levels
    # exactly: the tangent is 0 and the margin's theta derivative cancels,
    # so the step's dtheta has a zero denominator
    lv = LevelSet.from_values((0.0, 1.0), 1.0, 0.5)
    st = BranchState(l=1, theta=0.75, m=(0.5, 0.5), mu=0.0, alphas=(0.5, 0.5),
                     stable=False, margin=2.0, f=0.0, s=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bose_gas._fold_theta(lv, st) is None


def _guard_cases() -> list:
    three = LevelSet.from_values((0.0, 0.6, 1.0), 1.0, 2.0)
    lv, l, n = GROUND_PAST_FOLD
    hi = theta_upper_bound(lv)
    cases = [(LV, 1, _certificate_grid(LV)), (three, 2, _certificate_grid(three)),
             (three, 1, _certificate_grid(three)),
             (lv, l, np.geomspace(1e-3 * hi, hi, n))]
    # seeded off the ground level, where the fold is used
    rng = np.random.default_rng(2024)
    for _ in range(8):
        K = int(rng.integers(2, 9))
        lam = np.sort(rng.uniform(0.0, 1.0, K))
        lv = LevelSet.from_values(lam, float(np.exp(rng.uniform(-1, 1))),
                                  float(rng.uniform(1.2, 3.0)))
        hi = theta_upper_bound(lv)
        cases.append((lv, int(rng.integers(1, K)),
                      np.geomspace(1e-3 * hi, hi, int(rng.integers(8, 49)))))
    return cases


# law-R draws whose first dead grid point the fold decides (True), and two
# where the fold does not and the walk solves that point cold (False)
FOLD_RULE_DRAWS = {63: True, 98: True, 128: False, 266: False}


def _certificate_or_error(lv: LevelSet, l: int):
    try:
        return zeroth_order_certificate(lv, l)
    except Exception as exc:  # the outcome compared may be any error
        return f"{type(exc).__name__}: {exc}"


def test_fold_skip_changes_no_continuation(monkeypatch):
    """Continuations, and certificates off the ground seed, with the fold
    and with _fold_theta forced to None, so that every point the fold
    decides is solved: the same continuations, and certificates with the
    same theta_c and ground solve and f_meta within rounding."""
    draws = [_law_r(draw) for draw in FOLD_RULE_DRAWS]
    cases = _guard_cases() + [(lv, l, _certificate_grid(lv)) for lv, l in draws]
    solved = []
    alive = bose_gas._branch_alive

    def record_alive(levels, theta, l, hint):
        st = alive(levels, theta, l, hint)
        solved.append((theta, st is not None))
        return st

    monkeypatch.setattr(bose_gas, "_branch_alive", record_alive)
    with_fold, dead_grid_solves = [], []
    for lv, l, grid in cases:
        solved.clear()
        with_fold.append(_outcome(lambda: continue_branch(lv, l, grid)))
        start = min((theta for theta, ok in solved if ok), default=math.inf)
        dead_grid_solves.append(sum(not ok and theta > start and theta in grid
                                    for theta, ok in solved))
    certs = [(lv, l, _certificate_or_error(lv, l))
             for lv, l, _ in cases if l != lv.ground]
    # coverage: the draws solve their first dead grid point only where the
    # fold does not decide it
    assert dead_grid_solves[-len(draws):] == [
        0 if decided else 1 for decided in FOLD_RULE_DRAWS.values()]
    monkeypatch.setattr(bose_gas, "_fold_theta", lambda levels, st: None)
    for (lv, l, grid), want in zip(cases, with_fold):
        assert _outcome(lambda: continue_branch(lv, l, grid)) == want, (lv, l)
    for lv, l, want in certs:
        got = _certificate_or_error(lv, l)
        if isinstance(want, str):
            assert got == want, (lv, l)
            continue
        assert got.theta_c == want.theta_c and got.f_ground == want.f_ground
        assert abs(got.f_meta - want.f_meta) <= 1e-14 * abs(want.f_meta)
    # coverage: most branches die inside their grids, and most certify
    died = [out for out in with_fold
            if out.startswith("ContinuationResult") and "theta_c=None" not in out]
    assert len(died) >= 12
    assert sum(not isinstance(want, str) for _, _, want in certs) >= 10


def test_entropy_slope_positive_and_fd_consistent():
    """Analytic ds/dtheta against centered differences on a uniform grid."""
    grid = np.arange(0.15, 0.30 + 1e-12, 0.002)
    cont = continue_branch(LV, 1, grid)
    table = entropy_and_capacity(LV, cont.states)
    ds = np.asarray(table.ds_dtheta)
    fd = np.asarray(table.ds_dtheta_fd)
    assert (ds > 0).all()
    inner = slice(1, -1)
    rel = np.abs(fd[inner] - ds[inner]) / np.abs(ds[inner])
    assert np.nanmax(rel) < 0.01
    assert (table.heat_capacity()[inner] > 0).all()


def test_entropy_approaches_degeneracy_limit_at_zero_theta():
    # theta -> 0 on the condensed branch: s -> (g+1)ln((g+1)/g) + ln g
    st = solve_branch(LV, 0.004, 1)
    np.testing.assert_allclose(st.s, 2.0 * math.log(2.0), rtol=1e-9)


def test_singular_exponent_near_half():
    cert = zeroth_order_certificate(LV, 1)
    deltas = np.geomspace(1e-6, 1e-4, 9)
    states = branch_points_near(LV, 1, cert.theta_c, deltas)
    fit = singular_exponent_fit(LV, states, cert.theta_c)
    assert abs(fit.exponent - 0.5) < 0.05
    assert fit.C < 0
    np.testing.assert_allclose(fit.exponent, 0.499334662912, rtol=1e-4)


# the README instance, the three-level README config (both seeds) and the
# benchmark's K = 2 and K = 8 certificates, seeds 0-2
NEAR_CASES = [(LV, 1), (LevelSet.from_values((0.0, 0.6, 1.0), 1.0, 2.0), 2),
              (LevelSet.from_values((0.0, 0.6, 1.0), 1.0, 2.0), 1),
              *[(_bench_levels(seed, K), K - 1)
                for K in (2, 8) for seed in range(3)]]


@pytest.mark.parametrize("lv,l", NEAR_CASES, ids=[
    "gap1", "three_l2", "three_l1",
    *[f"bench{seed}_K{K}" for K in (2, 8) for seed in range(3)]])
def test_points_near_the_fold_match_cold_solves(lv, l):
    """The offsets below theta_c, walked by the predictor-corrector in
    increasing theta, agree with a cold solve at each to 1e-12 relative."""
    theta_c = zeroth_order_certificate(lv, l).theta_c
    deltas = np.geomspace(1e-6, 1e-4, 9)
    states = branch_points_near(lv, l, theta_c, deltas)
    assert [st.theta for st in states] == (theta_c - deltas[::-1]).tolist()
    for st in states:
        cold = solve_branch(lv, st.theta, l)
        np.testing.assert_allclose(st.m, cold.m, rtol=1e-12, atol=0)
        assert st.stable and st.margin > 0


def test_points_near_the_fold_solve_cold_once(monkeypatch):
    theta_c = zeroth_order_certificate(LV, 1).theta_c
    solves = []
    solve = bose_gas.solve_branch

    def counted(*args, **kwargs):
        solves.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(bose_gas, "solve_branch", counted)
    states = branch_points_near(LV, 1, theta_c, np.geomspace(1e-6, 1e-4, 9))
    assert len(states) == 9
    assert solves == [states[0].theta]


@pytest.mark.parametrize("deltas", [
    [], [1e-5, 1e-5, 1e-4], [1e-17, 2e-17], [1e-5, 0.0], [1e-5, math.nan],
    [1e-5, 1.0]])
def test_points_near_the_fold_reject_bad_offsets(deltas):
    # no offsets, a repeated one, two that give one temperature, and ones
    # that are not positive or reach below theta = 0
    with pytest.raises(InputError):
        branch_points_near(LV, 1, 0.365177783898, deltas)


@pytest.mark.parametrize("lv,l", [(LV, 1), *[(_bench_levels(seed, K), K - 1)
                                             for K in (2, 8, 32)
                                             for seed in range(3)]],
                         ids=["gap1", *[f"bench{seed}_K{K}" for K in (2, 8, 32)
                                        for seed in range(3)]])
def test_condensate_root_meets_the_unit_sum(lv, l, monkeypatch):
    """brentq brackets the seed fraction's root to about 2e-15, where the
    unit-sum defect's slope, the margin, is below 1 on a stable state: the
    root it returns leaves a defect of at most 1e-14, with no Newton
    polish after it."""
    defects = []
    brentq = bose_gas.brentq

    def recorded(f, *args, **kwargs):
        x = brentq(f, *args, **kwargs)
        if f.__name__ == "defect":
            defects.append(abs(f(x)))
        return x

    monkeypatch.setattr(bose_gas, "brentq", recorded)
    continue_branch(lv, l, _certificate_grid(lv))
    assert defects and max(defects) <= 1e-14


def test_gap_sweep_shrinks_the_jump():
    jumps = []
    for delta in (0.5, 0.2):
        lv = LevelSet.from_values((0.0, delta), 1.0, 2.0)
        jumps.append(zeroth_order_certificate(lv, 1).jump)
    assert jumps[0] > jumps[1] > 0
    np.testing.assert_allclose(jumps, (0.450191, 0.145462), rtol=1e-4)


def test_three_level_branch_structure():
    """Middle level keeps the larger stability barrier than the ground."""
    lv = LevelSet.from_values((0.0, 0.6, 1.0), 1.0, 2.0)
    st = solve_branch(lv, 0.2, 2)
    assert st.stable
    assert st.m[2] > st.m[0] > st.m[1]
    assert st.alphas[0] < st.alphas[1]
    cert = zeroth_order_certificate(lv, 2)
    np.testing.assert_allclose(cert.theta_c, 0.355521, rtol=1e-4)
    np.testing.assert_allclose(cert.jump, 0.983150, rtol=1e-4)


def test_input_validation_on_solves():
    with pytest.raises(InputError):
        solve_branch(LV, -0.1, 1)
    with pytest.raises(InputError):
        solve_branch(LV, 0.2, 5)
    with pytest.raises(InputError):
        continue_branch(LV, 1, (0.3, 0.2))
    with pytest.raises(InputError):
        continue_branch(LV, 1, ())
