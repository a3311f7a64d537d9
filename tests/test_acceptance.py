"""Acceptance criteria: one test per numbered criterion.

Each test prints exactly one [PASS]/[FAIL] verdict line for its criterion
(visible with `pytest -s` or in the captured output of a failure) and
enforces the runtime budget where the criterion names one.
"""

import bisect
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import zerophase as zp
from zerophase.errors import BranchTerminated


@contextmanager
def verdict(num: int, label: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {label} "
              f"({time.monotonic() - t0:.1f}s)")
        raise
    print(f"[PASS] criterion {num:02d}: {label} ({time.monotonic() - t0:.1f}s)")


def test_criterion_01_oracle_equivalence():
    """Class pipeline vs the dense tuple oracle on 50 random instances."""
    with verdict(1, "exact ensemble oracle equivalence"):
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        for _ in range(50):
            l = int(rng.integers(2, 4))
            M = int(rng.integers(1, 7))
            n = int(rng.integers(0, 4))
            g = rng.uniform(0.05, 3.0, l)
            lam = rng.uniform(-1.0, 2.0, l)
            beta = float(rng.uniform(0.2, 2.0))

            state = zp.init_product_state(g, M)
            ts = zp.tuple_product_state(g, M)
            for _ in range(n):
                state = zp.evolve_step(state, lam, beta)
                ts = zp.oracle_evolve(ts, lam, beta)

            np.testing.assert_allclose(zp.state_norm(state), zp.oracle_norm(ts),
                                       rtol=1e-10)
            rebuilt = zp.ensemble_from_tuple(ts, step=n)
            np.testing.assert_allclose(np.exp(state.log_coeffs - rebuilt.log_coeffs),
                                       1.0, rtol=1e-10)
            for i in range(l):
                np.testing.assert_allclose(zp.marginal(state, i),
                                           zp.oracle_marginal(ts, i),
                                           rtol=1e-10, atol=1e-300)
        assert time.monotonic() - t0 < 10.0


def test_criterion_02_limit_convergence():
    """F and marginal errors shrink strictly in M with a < 0.25 end ratio."""
    with verdict(2, "finite-M convergence to the limit laws"):
        t0 = time.monotonic()
        g = (0.2, 0.5, 0.3)
        lam = (0.0, 0.5, 1.3)
        for n in (1, 2, 3):
            report = zp.convergence_scan(g, lam, 1.0, n, (50, 100, 200, 400))
            assert (np.diff(report.errors) < 0).all()
            assert report.errors[-1] < 0.25 * report.errors[0]
            assert (np.diff(report.w_errors) < 0).all()
            assert report.w_errors[-1] < 0.25 * report.w_errors[0]
        assert time.monotonic() - t0 < 60.0


def test_criterion_03_gibbs_invariance():
    """Gibbs-proportional weights are reproduced at every step count."""
    with verdict(3, "Gibbs weights are evolution-invariant"):
        beta = 1.0
        lam = np.array([0.0, 0.5, 1.3])
        rho = np.exp(-beta * lam)
        rho /= rho.sum()
        for A in (0.5, 1.0, 7.0):
            for n in (0, 1, 5, 50):
                w = zp.limit_w(A * np.exp(-beta * lam), lam, beta, n)
                np.testing.assert_allclose(w, rho, atol=1e-12)
        # partial support: the free energy restricts to the support set
        support = (0, 2)
        point = zp.gibbs_fixed_point(lam, beta, support=support)
        restricted = -math.log(np.exp(-beta * lam[list(support)]).sum()) / beta
        np.testing.assert_allclose(point.F_inf, restricted, rtol=1e-12)
        g_masked = np.exp(-beta * lam) * np.array([1.0, 0.0, 1.0])
        np.testing.assert_allclose(zp.limit_F(g_masked, lam, beta, 10 ** 9),
                                   restricted, atol=1e-8)


def test_criterion_04_norm_average_identity():
    """The cooled product-state norm measures exactly the kernel average."""
    with verdict(4, "norm-based average equals the kernel average"):
        lam = np.array([0.1, 0.9, 1.7])
        p = np.array([0.3, 0.45, 0.25])
        beta = 1.3
        kernel = zp.AveragingKernel.exponential(beta)
        direct = zp.financial_average(kernel, lam, p)
        for M in (1, 5, 50):
            state = zp.init_product_state(p * np.exp(-beta * lam), M)
            from_norm = -zp.log_state_norm(state) / (M * beta)
            np.testing.assert_allclose(from_norm, direct, rtol=1e-12)


def test_criterion_05_branch_residuals_and_scan_oracle():
    """Every accepted branch point is a certified stationary point."""
    with verdict(5, "branch residuals below 1e-10; scan oracle agrees"):
        lv = zp.LevelSet.from_values((0.0, 1.0), 1.0, 2.0)
        hi = zp.theta_upper_bound(lv)
        cont = zp.continue_branch(lv, 1, np.geomspace(1e-3 * hi, hi, 48))
        assert len(cont.states) >= 40
        lam = lv.as_array()
        for st in cont.states:
            m = np.asarray(st.m)
            assert abs(m.sum() - 1.0) < 1e-10
            phi = lam - lv.V * m + st.theta * np.log(m / (lv.g + m))
            assert np.abs(phi - st.mu).max() < 1e-10
            assert zp.hartree_residual(st, lv) < 1e-10
        theta_c = cont.theta_c
        assert theta_c is not None
        for theta in np.arange(0.05, theta_c, 0.05):
            minima = np.asarray(zp.scalar_scan_minima(lv, float(theta), 1e-4))
            targets = [zp.solve_branch(lv, float(theta), l).m[1] for l in (0, 1)]
            assert minima.size == len(targets)
            for target in targets:
                assert np.min(np.abs(minima - target)) < 1e-3


def test_criterion_06_zeroth_order_transition():
    """Finite theta_c, positive jump, rising entropy, sqrt singularity."""
    with verdict(6, "zeroth-order transition certificate"):
        t0 = time.monotonic()
        lv = zp.LevelSet.from_values((0.0, 1.0), 1.0, 2.0)
        cert = zp.zeroth_order_certificate(lv, 1)
        assert math.isfinite(cert.theta_c) and cert.theta_c > 0
        assert cert.jump > 0

        # entropy increases with temperature along the metastable branch
        grid = np.arange(0.15, 0.30 + 1e-12, 0.002)
        cont = zp.continue_branch(lv, 1, grid)
        table = zp.entropy_and_capacity(lv, cont.states)
        assert (np.asarray(table.ds_dtheta) > 0).all()

        # square-root endpoint law over theta_c - theta in [1e-6, 1e-4]
        deltas = np.geomspace(1e-6, 1e-4, 9)
        states = zp.branch_points_near(lv, 1, cert.theta_c, deltas)
        fit = zp.singular_exponent_fit(lv, states, cert.theta_c)
        assert abs(fit.exponent - 0.5) <= 0.05

        # the jump shrinks monotonically as the level gap closes
        jumps = []
        for delta in (0.5, 0.2, 0.1, 0.05):
            lv_d = zp.LevelSet.from_values((0.0, delta), 1.0, 2.0)
            jumps.append(zp.zeroth_order_certificate(lv_d, 1).jump)
        assert all(a > b > 0 for a, b in zip(jumps, jumps[1:]))
        assert time.monotonic() - t0 < 120.0


def test_criterion_07_high_temperature_uniqueness():
    """Ten random starts meet one solution matching the Bose form."""
    with verdict(7, "high-temperature uniqueness and occupation form"):
        lv = zp.LevelSet.from_values((0.0, 1.0), 10.0, 2.0)
        theta = 50.0 * max(abs(v) for v in lv.lambdas)
        rng = np.random.default_rng(99)
        solutions = []
        for _ in range(10):
            x = float(rng.uniform(0.02, 0.98))
            solutions.append(np.asarray(
                zp.solve_self_consistent(lv, theta, (1.0 - x, x)).m))
        for other in solutions[1:]:
            assert np.abs(other - solutions[0]).max() < 1e-8
        reference = np.exp(-lv.as_array() / theta)
        reference /= reference.sum()
        rel = np.abs(solutions[0] - reference) / reference
        assert rel.max() < 1e-3


def test_criterion_08_envelope_properties():
    """Ascent envelope dominance, semigroup law, second-order heat defect."""
    with verdict(8, "entropy envelope properties"):
        n = 4001
        spacing = 2.0 / (n - 1)
        field = zp.EntropyField.from_function(lambda x: -x * x, (-1.0,),
                                              (spacing,), (n,))
        out = zp.hopf_lax(field, 0.5, mode="max")
        assert (out.H >= field.H - 1e-12).all()

        rng = np.random.default_rng(5)
        rough = zp.EntropyField((-1.0,), (2.0 / 512,),
                                rng.standard_normal(513))
        assert (zp.hopf_lax(rough, 0.1, mode="max").H >= rough.H - 1e-12).all()

        once = zp.hopf_lax(field, 0.5, mode="max")
        twice = zp.hopf_lax(zp.hopf_lax(field, 0.3, mode="max"), 0.2, mode="max")
        assert np.abs(once.H - twice.H).max() < 1e-6

        residuals = []
        for m in (201, 401, 801):
            h = 2.0 / (m - 1)
            f = zp.EntropyField.from_function(
                lambda x: np.sin(2.0 * x) - 0.3 * x * x, (-1.0,), (h,), (m,))
            residuals.append(zp.heat_semigroup_residual(f, 0.2))
        assert residuals[0] / residuals[1] >= 3.5
        assert residuals[1] / residuals[2] >= 3.5


def _two_level_lines(n1, n2, N, gamma):
    """Energy part e(N1) and entropy s(N1) = ln Gamma(N1), N1 = 0..N.

    Closed form of the two-level economy (condensation module docstring):
    e = N1 + 2 N2 - gamma (N1^2 + N2^2) / (2N) with N2 = N - N1, and the
    multinomial-boson multiplicity Gamma = C(N1+n1-1, N1) C(N2+n2-1, N2).
    """
    e, s = [], []
    for a in range(N + 1):
        b = N - a
        e.append(a + 2.0 * b - gamma * (a * a + b * b) / (2.0 * N))
        s.append(math.lgamma(a + n1) - math.lgamma(n1) - math.lgamma(a + 1)
                 + math.lgamma(b + n2) - math.lgamma(n2) - math.lgamma(b + 1))
    return e, s


def _lower_envelope(e, s):
    """Vertices (T_k, i_k) of min_i (e_i - T s_i) over T >= 0.

    Line i_k is the minimiser on (T_k, T_{k+1}); i_0 is the smallest minimiser
    at T = 0.  From the current line the envelope passes, at the earliest
    crossing, to the crossing line of largest s (smallest index among equal
    lines), so s rises strictly and the walk ends after at most N+1 lines.
    """
    i = min(range(len(e)), key=lambda k: (e[k], k))
    vertices = [(0.0, i)]
    while True:
        crossings = [((e[j] - e[i]) / (s[j] - s[i]), -s[j], j)
                     for j in range(len(e)) if s[j] > s[i]]
        if not crossings:
            return vertices
        T, _, i = min(crossings)
        vertices.append((T, i))


def _scan_against_envelope(n1, n2, N, gamma, grid):
    """Scan the economy; check its argmin against the exact envelope."""
    e, s = _two_level_lines(n1, n2, N, gamma)
    vertices = _lower_envelope(e, s)
    kinks = [T for T, _ in vertices[1:]]
    # every grid T sits inside one envelope segment, far beyond the
    # round-off of a vertex, so the exact minimiser there is unambiguous
    assert min(abs(T - t) for T in grid for t in kinks) > 1e-9
    exact = [vertices[bisect.bisect(kinks, T)][1] for T in grid]
    eco = zp.TwoLevelEconomy(n1=n1, n2=n2, N=N, gamma_int=gamma,
                             sign_convention="minus")
    scan = zp.social_explosion_scan(eco, grid)
    assert list(scan.argmin_N1) == exact
    explosions = [T for (_, i), (T, j) in zip(vertices, vertices[1:])
                  if abs(j - i) >= 0.9 * N]
    return e, vertices, explosions, scan


def test_criterion_09_social_explosion():
    """Two-level scan: rerun-stable, exact, and a >= 0.9 N jump at T*.

    The scan's argmin must equal, at every grid T, the minimiser of the exact
    lower envelope of the lines e(N1) - T ln Gamma(N1), built from the closed
    form.  On the symmetric instance (n1 = n2 = 50, N = 100, gamma = 1.5,
    minus convention) the envelope walks N1 from 100 to 50 one unit per
    vertex, so no T >= 0 gives a >= 0.9 N jump and T_star must be None.  On
    the skewed instance (n1 = 5, n2 = 95) the envelope jumps 93 -> 1 at
    T_c ~= 0.8922; T_star must be the first grid point at or after T_c, the
    jump at least 0.9 N, and the kinetic outburst the energy-part change
    across that grid step.
    """
    with verdict(9, "social explosion scan against the exact envelope"):
        N, gamma = 100, 1.5
        grid = np.linspace(0.0, 10.0, 200)

        code = (
            "import numpy as np\n"
            "from zerophase.condensation import TwoLevelEconomy, "
            "social_explosion_scan\n"
            "for n1, n2 in ((50, 50), (5, 95)):\n"
            "    eco = TwoLevelEconomy(n1=n1, n2=n2, N=100, gamma_int=1.5)\n"
            "    s = social_explosion_scan(eco, np.linspace(0.0, 10.0, 200))\n"
            "    print(repr((s.T_star, s.jump_size, s.argmin_N1)))\n"
        )
        outputs = set()
        for _ in range(3):
            proc = subprocess.run([sys.executable, "-c", code],
                                  capture_output=True, text=True, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1  # identical across fresh processes

        _, vertices, explosions, scan = _scan_against_envelope(
            50, 50, N, gamma, grid)
        assert [i for _, i in vertices] == list(range(100, 49, -1))
        assert explosions == []
        assert scan.T_star is None

        e, _, explosions, scan = _scan_against_envelope(5, 95, N, gamma, grid)
        assert explosions, "the skewed envelope has no >= 0.9 N jump"
        k = int(np.searchsorted(grid, explosions[0]))
        assert scan.T_star == grid[k]
        assert scan.jump_size >= 0.9 * N
        before, after = scan.argmin_N1[k - 1], scan.argmin_N1[k]
        assert scan.kinetic_outburst == pytest.approx(e[after] - e[before],
                                                      rel=1e-14)


def test_criterion_10_multi_currency_scaling():
    """Splitting into K currencies gains exactly sqrt(K) in the model."""
    with verdict(10, "multi-currency sqrt(K) scaling"):
        model = zp.sqrt_threshold_model()
        for K in (1, 2, 4, 9, 16):
            ratio = zp.multi_currency_threshold(1000.0, K, model).ratio
            assert abs(ratio - math.sqrt(K)) <= 1e-12


def test_criterion_11_degree_probe():
    """Low-degree spectra always carry a relation; full degree never does."""
    with verdict(11, "polynomial-degree resonance probe"):
        t0 = time.monotonic()
        low = zp.probe_proposition3(p=1, N=3, trials=100, bound=2, seed=17)
        assert low.fail_fraction == 1.0
        for witness in low.witnesses:
            assert witness is not None and sum(witness) == 0
        high = zp.probe_proposition3(p=3, N=3, trials=100, bound=3, seed=17)
        assert high.fail_fraction == 0.0
        assert time.monotonic() - t0 < 30.0
