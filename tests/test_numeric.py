"""The numpy ports of brentq, logsumexp, the linear interpolant and gammaln.

scipy stays the oracle: every port must return exactly what the scipy
routine it replaces returns, bit for bit.
"""

import math
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator
from scipy.optimize import brentq as scipy_brentq
from scipy.special import gammaln
from scipy.special import logsumexp as scipy_logsumexp

from zerophase import bose_gas, condensation, ensemble
from zerophase._numeric import brentq, linear_sampler, log_factorial, logsumexp
from zerophase.errors import SolverError

# ---------------------------------------------------------------------------
# logsumexp

# small values tie at the max; +-800 overflow exp in the direct sum
_exponents = st.one_of(st.floats(-50.0, 50.0),
                       st.sampled_from([0.0, 2.5, 800.0, -800.0]))
_weights = st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.floats(-1.0, 3.0))


def _same(got, want) -> bool:
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.array_equal(got, want, equal_nan=True))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 4), st.integers(1, 6)),
       axis=st.sampled_from([None, -1]), weighted=st.booleans(),
       zero_row=st.booleans())
def test_logsumexp_equals_scipy(data, shape, axis, weighted, zero_row):
    a = data.draw(hnp.arrays(float, shape, elements=_exponents))
    b = None
    if weighted:
        b = data.draw(hnp.arrays(float, shape, elements=_weights))
        if zero_row:
            b[0] = 0.0
    assert _same(logsumexp(a, axis=axis, b=b),
                 scipy_logsumexp(a, axis=axis, b=b))
    # the 1-d call the averaging and asymptotic paths make
    assert _same(logsumexp(a[0], b=None if b is None else b[0]),
                 scipy_logsumexp(a[0], b=None if b is None else b[0]))


def test_logsumexp_overflow_with_zero_weights_is_nan_as_in_scipy():
    # the fallback sums the original terms: 0 * inf is NaN, not -inf
    a = np.array([[800.0, 1.0], [0.0, 1.0]])
    b = np.array([[0.0, 0.0], [1.0, 1.0]])
    got = logsumexp(a, axis=-1, b=b)
    assert math.isnan(got[0])
    assert _same(got, scipy_logsumexp(a, axis=-1, b=b))


def test_logsumexp_denormal_weight_at_the_max_does_not_warn():
    # m = 1e-320 makes s / m overflow to inf; log1p(inf) then gives inf
    # where scipy's direct fallback takes over, so the value is scipy's
    a, b = [0.0, -1.0], [1e-320, 1.0]
    with np.errstate(over="ignore"):
        want = scipy_logsumexp(a, b=b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logsumexp(a, b=b)
    assert _same(got, want)


# ---------------------------------------------------------------------------
# brentq

# (xtol, rtol, maxiter) at the call sites, scipy's defaults, and budgets
# short enough to run out
_TOLERANCES = [
    dict(xtol=1e-300, rtol=8.9e-16, maxiter=200),  # bose_gas._low_root
    dict(xtol=1e-300, rtol=8.9e-16),               # bose_gas._gas_solution
    dict(xtol=1e-15, rtol=8.9e-16),                # bose_gas.solve_branch
    dict(rtol=8.9e-16, maxiter=200),               # condensation.n0_of_money
    dict(),
    dict(xtol=0.1),  # coarse: delta then steers the step rules
    dict(maxiter=3),
]


def _outcome(solver, f, lo, hi, kwargs):
    """Root (or failure) and every abscissa the solver evaluated f at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    try:
        return solver(g, lo, hi, **kwargs), calls
    except (SolverError, ValueError, RuntimeError):
        return "failed", calls


@settings(max_examples=200, deadline=None)
@example(coeffs=[1.1125369292536007e-308, 0.0, 0.0, 1.1125369292536007e-308],
         ends=(0.0, -2.0), kwargs=_TOLERANCES[0])  # a step divides by zero
@example(coeffs=[-0.05, 2.55, -0.1, -4.71], ends=(-2.14, 0.01),
         kwargs=dict(xtol=0.1))  # the short-step test's "- delta" decides
@given(coeffs=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=5),
       ends=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
       kwargs=st.sampled_from(_TOLERANCES))
def test_brentq_equals_scipy_on_polynomials(coeffs, ends, kwargs):
    lo, hi = sorted(ends)

    def f(x):
        return float(np.polyval(coeffs, x))

    assert (_outcome(brentq, f, lo, hi, kwargs)
            == _outcome(scipy_brentq, f, lo, hi, kwargs))


@settings(max_examples=200, deadline=None)
@given(V=st.floats(0.1, 4.0), theta=st.floats(1e-3, 2.0),
       g=st.floats(0.1, 3.0), target=st.floats(-50.0, -0.01),
       kwargs=st.sampled_from(_TOLERANCES))
def test_brentq_equals_scipy_on_the_low_root_equation(V, theta, g, target,
                                                      kwargs):
    # phi00(m) - target on (0, m*], the equation _low_root solves
    mstar = V * (g + 1.0) / g

    def f(m):
        return -V * m + theta * math.log(m / (g + m)) - target

    assert (_outcome(brentq, f, 5e-324, mstar, kwargs)
            == _outcome(scipy_brentq, f, 5e-324, mstar, kwargs))


def test_brentq_without_sign_change_names_the_bracket():
    with pytest.raises(SolverError, match="no sign change on"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brentq_nan_names_the_abscissa():
    with pytest.raises(SolverError, match=r"f is NaN at x = 1\.0"):
        brentq(lambda x: x - 0.3 if x < 0.9 else math.nan, 0.0, 1.0)


def test_brentq_out_of_iterations_says_so():
    with pytest.raises(SolverError, match="no convergence after 2 iterations"):
        brentq(lambda x: x ** 3 - 0.3, 0.0, 1.0, maxiter=2)


# ---------------------------------------------------------------------------
# linear interpolant


def _axis(data):
    n = data.draw(st.integers(3, 8))
    if data.draw(st.booleans()):
        origin, h = data.draw(st.floats(-3.0, 3.0)), data.draw(st.floats(0.05, 1.0))
        return origin + h * np.arange(n)
    nodes = data.draw(hnp.arrays(float, n, elements=st.floats(-3.0, 3.0),
                                 unique=True))
    return np.sort(nodes)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), ndim=st.integers(1, 2))
def test_linear_sampler_equals_scipy(data, ndim):
    axes = tuple(_axis(data) for _ in range(ndim))
    shape = tuple(g.size for g in axes) + (ndim + 1,)
    values = data.draw(hnp.arrays(float, shape, elements=st.floats(-5.0, 5.0)))
    # points inside, outside the box (extrapolated), on nodes, and NaN
    coords = [st.one_of(st.floats(g[0] - 5.0, g[-1] + 5.0),
                        st.sampled_from(list(g)), st.just(math.nan))
              for g in axes]
    pts = np.array(data.draw(st.lists(st.tuples(*coords), min_size=1,
                                      max_size=12)))
    rgi = RegularGridInterpolator(axes, values, method="linear",
                                  bounds_error=False, fill_value=None)
    sample = linear_sampler(axes, values)
    for xi in (pts, pts[0]):
        # an extrapolated point in a subnormal-width cell overflows its
        # weights, with numpy's warning, on both sides
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = sample(xi), rgi(xi)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)


def test_linear_sampler_subnormal_cell_gives_scipys_nan_row():
    # the weights of x = -1 in the cell [0, 5e-324] overflow to inf, and
    # inf * 0 gives the NaN row scipy returns as well
    axes = (np.array([0.0, 5e-324, 1.0]),)
    values = np.zeros((3, 2))
    pts = np.array([[-1.0], [0.5]])
    with np.errstate(over="ignore", invalid="ignore"):
        want = RegularGridInterpolator(axes, values, method="linear",
                                       bounds_error=False, fill_value=None)(pts)
        got = linear_sampler(axes, values)(pts)
    assert np.isnan(got[0]).all()
    assert np.array_equal(got, want, equal_nan=True)


# ---------------------------------------------------------------------------
# log_factorial


def test_log_factorial_equals_gammaln_exhaustively():
    k = np.arange(200_001)
    assert np.array_equal(log_factorial(k), gammaln(k + 1.0))


# the edges of cephes lgam's branches at x = k + 1: the exact product below
# 13, the five-term correction below 1000, the three-term one up to 1e8
@pytest.mark.parametrize("k", [0, 1, 11, 12, 13, 998, 999, 1000,
                               10**8 - 2, 10**8 - 1, 10**8, 10**8 + 1,
                               10**8 + 2, 2**53 - 1])
def test_log_factorial_equals_gammaln_at_branch_edges(k):
    got, want = log_factorial(k), gammaln(k + 1.0)
    assert type(got) is type(want) and got == want


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(0, 2**53), min_size=1, max_size=20))
def test_log_factorial_equals_gammaln(ks):
    k = np.array(ks, dtype=np.int64)
    assert np.array_equal(log_factorial(k), gammaln(k + 1.0))
    assert np.array_equal(log_factorial(k.reshape(1, -1)),
                          gammaln(k.reshape(1, -1) + 1.0))


# the call sites against the gammaln expressions they replaced


@pytest.mark.parametrize("M,l", [(1, 1), (4, 2), (12, 3), (13, 3), (40, 4),
                                 (999, 2), (1500, 2)])
def test_class_layout_log_sizes_equal_gammaln(M, l):
    occ, log_sizes = ensemble._class_layout(M, l)
    assert np.array_equal(log_sizes,
                          gammaln(M + 1) - gammaln(occ + 1).sum(axis=1))


@pytest.mark.parametrize("n1,n2,N", [(1, 1, 1), (50, 50, 100), (5, 95, 100),
                                     (1000, 7, 2000), (3, 1200, 5000),
                                     (10**9, 5, 100), (2**52, 1, 10)])
def test_social_log_multiplicity_equals_gammaln(n1, n2, N):
    eco = condensation.TwoLevelEconomy(n1=n1, n2=n2, N=N, gamma_int=1.5)
    m1 = np.arange(N + 1, dtype=float)
    m2 = N - m1
    want = (gammaln(m1 + n1) - gammaln(n1) - gammaln(m1 + 1.0)
            + gammaln(m2 + n2) - gammaln(n2) - gammaln(m2 + 1.0))
    assert np.array_equal(condensation._log_multiplicity(eco), want)


@pytest.mark.parametrize("occ", [(4, 0), (1, 3), (2, 2, 0), (7, 6, 3, 14),
                                 (500, 1500, 0), (0, 1000)])
def test_closed_form_log_coeff_equals_gammaln(occ):
    l, M, n, beta = len(occ), sum(occ), 3, 0.7
    g = np.linspace(0.5, 1.5, l)
    lam = np.arange(l, dtype=float)
    occ_arr = np.array(occ, dtype=np.int64)
    base = np.where(occ_arr > 0, occ_arr * np.log(g), 0.0).sum()
    log_size = gammaln(M + 1) - gammaln(occ_arr + 1).sum()
    want = float(base + n * (log_size - beta * (occ_arr @ lam)))
    assert ensemble.closed_form_log_coeff(g, lam, beta, M, n, occ) == want


@pytest.mark.parametrize("occ,G", [((2, 0), None), ((1, 1), 1), ((7, 13), 5),
                                   ((0, 400, 1100), 999)])
def test_bose_log_multiplicity_equals_gammaln(occ, G):
    levels = bose_gas.LevelSet.from_values(tuple(range(len(occ))), 1.0, 2.0)
    N = sum(occ)
    x = np.array(occ, dtype=float)
    G_ = max(1, int(round(levels.g * N))) if G is None else G
    want = float(np.sum(gammaln(G_ + x) - gammaln(G_) - gammaln(x + 1.0)))
    assert bose_gas.log_multiplicity(levels, occ, N, G) == want
