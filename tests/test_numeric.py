"""The numpy ports of brentq, logsumexp, the linear interpolant and gammaln,
the lower envelope of lines, and the input gates.

scipy stays the oracle: every port must return exactly what the scipy
routine it replaces returns, bit for bit.  The envelope's oracles are the
exhaustive float argmin and exact rational arithmetic.
"""

import itertools
import math
from fractions import Fraction

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
from zerophase._numeric import (MAX_COUNT, brentq, check_count, check_real,
                                envelope_argmin, linear_sampler, log_factorial,
                                logsumexp, lower_envelope)
from zerophase.errors import InputError, SolverError

# ---------------------------------------------------------------------------
# logsumexp

# small values tie at the max; +-800 overflow exp in the direct sum; rows
# of -inf, with an inf max or with a NaN take the direct fallback
_exponents = st.one_of(st.floats(-50.0, 50.0),
                       st.sampled_from([0.0, 2.5, 800.0, -800.0]),
                       st.sampled_from([np.inf, -np.inf, np.nan]))


def _same(got, want) -> bool:
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.array_equal(got, want, equal_nan=True))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 4), st.integers(1, 6)),
       axis=st.sampled_from([None, -1]))
def test_logsumexp_equals_scipy(data, shape, axis):
    a = data.draw(hnp.arrays(float, shape, elements=_exponents))
    assert _same(logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis))
    # the 1-d call the averaging and asymptotic paths make
    assert _same(logsumexp(a[0]), scipy_logsumexp(a[0]))


# ---------------------------------------------------------------------------
# brentq

# (xtol, rtol, maxiter) at the call sites, scipy's defaults, and budgets
# short enough to run out
_TOLERANCES = [
    dict(xtol=1e-300, rtol=8.9e-16, maxiter=200),  # bose_gas._low_roots
    dict(xtol=1e-300, rtol=8.9e-16),               # _low_roots's, default cap
    dict(xtol=1e-15, rtol=8.9e-16),                # bose_gas._condensate_solution
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
@example(coeffs=[-6.436028126985004e-284, 0.0, 1e-300], ends=(0.0, 1.0),
         kwargs={})  # default rtol: a step divides by zero
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
    # phi00(m) - target on (0, m*], the equation _low_roots solves
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
    corners = np.array(list(itertools.product(*[(g[0], g[-1]) for g in axes])))
    _check_point_path(sample, np.vstack([pts, corners]))


def _check_point_path(sample, pts):
    # the one-point path in Python floats gives the vectorized row's bits
    for p in pts:
        with np.errstate(over="ignore", invalid="ignore"):
            want = sample(p)[0]
        got = sample.point(p.tolist())
        assert all(type(v) is float for v in got)
        assert np.array_equal(np.array(got), want, equal_nan=True)


def test_linear_sampler_subnormal_cell_gives_scipys_nan_row():
    # the weights of x = -1 in the cell [0, 5e-324] overflow to inf, and
    # inf * 0 gives the NaN row scipy returns as well
    axes = (np.array([0.0, 5e-324, 1.0]),)
    values = np.zeros((3, 2))
    pts = np.array([[-1.0], [0.5]])
    with np.errstate(over="ignore", invalid="ignore"):
        want = RegularGridInterpolator(axes, values, method="linear",
                                       bounds_error=False, fill_value=None)(pts)
        sample = linear_sampler(axes, values)
        got = sample(pts)
    assert np.isnan(got[0]).all()
    assert np.array_equal(got, want, equal_nan=True)
    _check_point_path(sample, pts)


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


# ---------------------------------------------------------------------------
# lower envelope of lines

# small integers tie exactly and often: equal slopes, identical lines and
# three lines through one point
_small_lines = st.integers(1, 30).flatmap(lambda n: st.tuples(
    hnp.arrays(float, n, elements=st.integers(-4, 4)),
    hnp.arrays(float, n, elements=st.integers(-6, 6))))


def _exact_argmin(slopes, intercepts, q) -> int:
    # the smallest index among the exact minimizers at q
    values = [Fraction(c) + Fraction(m) * Fraction(q)
              for m, c in zip(slopes.tolist(), intercepts.tolist())]
    return values.index(min(values))


@settings(max_examples=150, deadline=None)
@given(lines=_small_lines)
def test_lower_envelope_is_the_exact_hull(lines):
    slopes, intercepts = lines
    vertices, breaks = lower_envelope(slopes, intercepts)
    assert np.all(np.diff(slopes[vertices]) < 0) and np.all(np.diff(breaks) > 0)
    # inside each interval, and beyond both ends, its vertex is the exact
    # minimizer, and off the breakpoints every exact minimizer is a vertex
    ends = np.concatenate(([breaks[0] - 1.0] if breaks.size else [0.0],
                           breaks, [breaks[-1] + 1.0] if breaks.size else []))
    inside = (ends[:-1] + ends[1:]) / 2 if breaks.size else ends
    for v, q in zip(vertices.tolist(), inside.tolist()):
        assert _exact_argmin(slopes, intercepts, q) == v
    # at q = p/17, off every breakpoint (their denominators are at most 8),
    # in integers: 17 (c + m q) = 17 c + m p
    p = np.arange(-680, 680, 17) + 5
    values = 17 * intercepts.astype(int) + np.outer(p, slopes.astype(int))
    assert np.isin(np.argmin(values, axis=1), vertices).all()


def _assert_exact_hull(slopes, intercepts, vertices) -> None:
    # the lines of vertices, in rationals, form the exact lower envelope:
    # slopes fall strictly, crossings rise strictly (so each vertex owns an
    # interval), no line lies below a crossing, the end lines carry the
    # extreme slopes, and of equal lines the first stays
    m = [Fraction(v) for v in slopes.tolist()]
    c = [Fraction(v) for v in intercepts.tolist()]
    V = vertices.tolist()
    assert m[V[0]] == max(m) and m[V[-1]] == min(m)
    assert all(m[a] > m[b] for a, b in zip(V, V[1:]))
    X = [(c[b] - c[a]) / (m[a] - m[b]) for a, b in zip(V, V[1:])]
    assert all(x < y for x, y in zip(X, X[1:]))
    for x, a in zip(X, V):
        assert min(ci + mi * x for mi, ci in zip(m, c)) == c[a] + m[a] * x
    for v in V:
        assert min((c[i], i) for i in range(len(m)) if m[i] == m[v]) == (c[v], v)


@settings(max_examples=150, deadline=None)
@given(slopes=st.integers(3, 12).flatmap(
           lambda n: hnp.arrays(float, n, elements=st.floats(-5, 5))),
       x0=st.floats(-10, 10), y0=st.floats(-10, 10))
def test_lower_envelope_of_nearly_concurrent_lines_is_exact(slopes, x0, y0):
    # lines through (x0, y0), each intercept rounded: the float orientation
    # tests fall within their rounding bounds, and only the rational redo
    # tells which of the lines the exact hull keeps
    intercepts = y0 - slopes * x0
    _assert_exact_hull(slopes, intercepts, lower_envelope(slopes, intercepts)[0])


@settings(max_examples=200, deadline=None)
@given(lines=_small_lines, grid=hnp.arrays(float, 50, elements=st.floats(-20, 20)))
def test_envelope_argmin_certifies_only_the_exhaustive_argmin(lines, grid):
    slopes, intercepts = lines
    _, breaks = lower_envelope(slopes, intercepts)
    q = np.concatenate((grid, breaks))
    owner, uncertified = envelope_argmin(slopes, intercepts, q)
    for j in np.flatnonzero(~uncertified):
        values = intercepts + slopes * q[j]
        assert np.argmin(values) == owner[j]
        assert np.sum(values == values.min()) == 1  # strict and unique
    assert uncertified[grid.size:].all()  # two lines tie at every breakpoint


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e6]))
def test_envelope_argmin_certifies_random_lines(n, seed, scale):
    rng = np.random.default_rng(seed)
    slopes, intercepts = scale * rng.standard_normal((2, n))
    q = np.linspace(-5.0, 5.0, 301)
    owner, uncertified = envelope_argmin(slopes, intercepts, q)
    want = np.argmin(intercepts + slopes * q[:, None], axis=1)
    assert np.array_equal(owner[~uncertified], want[~uncertified])
    # away from the breakpoints the certificate holds
    _, breaks = lower_envelope(slopes, intercepts)
    near = np.abs(q[:, None] - breaks).min(axis=1, initial=np.inf) < 1e-9 * (1 + np.abs(q))
    assert not np.any(uncertified & ~near)


def test_envelope_argmin_leaves_non_finite_lines_to_the_scan():
    owner, uncertified = envelope_argmin([1.0, np.inf], [0.0, 1.0], [0.0, 1.0])
    assert uncertified.all()


@settings(max_examples=150, deadline=None)
@given(lines=_small_lines)
def test_envelope_argmin_certifies_every_unique_minimizer(lines):
    # off the breakpoints of small-integer lines the exact gaps are at
    # least 1/(17 * 8), far above the margin: each unique exact minimizer
    # at q = p/17 is certified
    slopes, intercepts = lines
    q = (np.arange(-680, 680, 17) + 5) / 17
    owner, uncertified = envelope_argmin(slopes, intercepts, q)
    for j, x in enumerate(q.tolist()):
        values = [Fraction(c) + Fraction(m) * Fraction(x)
                  for m, c in zip(slopes.tolist(), intercepts.tolist())]
        if values.count(min(values)) == 1:
            assert not uncertified[j] and owner[j] == values.index(min(values))


@settings(max_examples=200, deadline=None)
@given(lines=_small_lines, start=st.integers(-160, 160), count=st.integers(1, 40))
def test_envelope_argmin_certifies_only_strict_minima_in_a_window(lines, start, count):
    # q = k/8 holds every breakpoint of the window, and the float values
    # of small-integer lines there are exact; a window that misses the
    # first or the last vertices leaves lines to trail those past its ends
    slopes, intercepts = lines
    q = (start + np.arange(count)) / 8
    owner, uncertified = envelope_argmin(slopes, intercepts, q)
    values = intercepts + slopes * q[:, None]
    least = values == values.min(axis=1, keepdims=True)
    certified = np.flatnonzero(~uncertified)
    assert np.all(least[certified, owner[certified]])
    assert np.all(least[certified].sum(axis=1) == 1)


def test_envelope_argmin_certifies_near_equal_slopes():
    # forty lines through one point at q = -2**40, with slopes 2**-40
    # apart: line 0 leads line 1 by about 1 everywhere on [-5, 5]
    i = np.arange(40.0)
    owner, uncertified = envelope_argmin(1 + i * 2.0 ** -40, i,
                                         np.linspace(-5.0, 5.0, 101))
    assert not uncertified.any() and not owner.any()


def test_envelope_argmin_certifies_at_a_crossing_off_the_envelope():
    # lines 3 and 4 are off the envelope and cross at q = 0, where the
    # owner, line 1, leads them by 5: their two lines bracket the crossing
    owner, uncertified = envelope_argmin([2.0, 0.0, -2.0, 1.0, -1.0],
                                         [0.0, -10.0, 0.0, -5.0, -5.0], [0.0])
    assert owner.tolist() == [1] and not uncertified.any()


def test_envelope_argmin_of_no_points_is_empty():
    owner, uncertified = envelope_argmin([1.0, 2.0], [0.0, 1.0], [])
    assert owner.shape == uncertified.shape == (0,)
    assert owner.dtype == np.intp and uncertified.dtype == bool


# ---------------------------------------------------------------------------
# scalar input gates


def test_real_gate_returns_its_argument_or_raises():
    for value, sign in ((0.0, "nonnegative"), (5e-324, "positive"), (-3, ""),
                        (np.float32(2.5), "positive")):
        assert check_real(value, "x", sign) is value
    for value, sign in ((math.nan, ""), (math.inf, "positive"),
                        (-math.inf, "nonnegative"), (0.0, "positive"),
                        (-5e-324, "nonnegative"), (10**400, ""), ("1", ""),
                        (None, ""), (np.ones(2), "")):
        with pytest.raises(InputError, match="^x must be finite"):
            check_real(value, "x", sign)


def test_count_gate_accepts_integral_numbers_up_to_2_52():
    for value in (0, 2.0, np.int64(7), np.float64(3.0), MAX_COUNT):
        n = check_count(value, "n")
        assert type(n) is int and n == value
    assert check_count(1, "n", 1) == 1
    for value, low in ((True, 0), (np.True_, 0), (1.5, 0), (math.nan, 0),
                       (math.inf, 0), (-1, 0), (0, 1), (MAX_COUNT + 1, 0),
                       (float(2**53), 0), ("3", 0), (None, 0)):
        with pytest.raises(InputError, match="^n must be .* not exceed 2"):
            check_count(value, "n", low)
