"""Numpy ports of the four SciPy routines the solvers call.

Each port performs the same float operations in the same order as the SciPy
1.17 code it replaces, so it returns the same bits; the tests hold each one
to its SciPy original with exact equality.  Keeping them here lets the
package run on numpy alone.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .errors import InputError, SolverError

_RTOL = 4 * np.finfo(float).eps

# Largest count accepted: sums of two counts stay exact in float64, so the
# arguments of log_factorial match those the float gammaln calls had.
MAX_COUNT = 2**52

# cephes lgam (Moshier, Methods and Programs for Mathematical Functions,
# 1989): ln sqrt(2 pi) and the Stirling correction in 1/x^2 for x < 1000
_LS2PI = 0.91893853320467274178
_STIRLING_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
               7.93650340457716943945E-4, -2.77777777730099687205E-3,
               8.33333333333331927722E-2)
# x = k + 1 < 13: cephes multiplies out k! exactly and takes its log
_SMALL_LOG_FACTORIALS = np.array([math.log(float(math.factorial(k)))
                                  for k in range(12)])


def as_counts(values) -> np.ndarray:
    """values as an int64 array of counts in [0, MAX_COUNT].

    Raises InputError naming a non-integer, negative or too large entry.
    """
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        a = a.astype(float)
        if not np.all(np.isfinite(a) & (a == np.floor(a))):
            raise InputError("occupations must be integers")
    if np.any(a < 0):
        raise InputError("occupations must be nonnegative")
    if np.any(a > MAX_COUNT):
        raise InputError("occupations must not exceed 2**52")
    return a.astype(np.int64)


def log_factorial(k):
    """ln k! for integers k >= 0, as SciPy's gammaln(k + 1) gives it.

    The float operations of cephes lgam at x = k + 1, with its logs taken
    from libm through math.log: numpy's vectorised log can differ from
    libm in the last place.
    """
    k = np.asarray(k, dtype=np.int64)
    shape = k.shape
    k = k.ravel()
    x = k + 1.0
    out = _SMALL_LOG_FACTORIALS[np.minimum(k, 11)]
    big = x >= 13.0
    if big.any():
        xb = x[big]
        log_x = np.fromiter(map(math.log, xb.tolist()), float, xb.size)
        q = (xb - 0.5) * log_x - xb + _LS2PI
        p = 1.0 / (xb * xb)
        poly = np.full_like(p, _STIRLING_A[0])
        for c in _STIRLING_A[1:]:
            poly = poly * p + c
        three = ((7.9365079365079365079365e-4 * p
                  - 2.7777777777777777777778e-3) * p
                 + 0.0833333333333333333333)
        corr = np.where(xb < 1000.0, poly, three) / xb
        out[big] = np.where(xb > 1.0e8, q, q + corr)
    out = out.reshape(shape)
    return out[()] if out.ndim == 0 else out


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = _RTOL,
           maxiter: int = 100) -> float:
    """Root of f on [a, b] by Brent's method, as SciPy's brentq.c codes it.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 4.
    Raises SolverError when f(a) and f(b) share a sign, when f is NaN, and
    when maxiter iterations do not converge.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise SolverError(f"brentq: f is NaN at x = {x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise SolverError(f"brentq: no sign change on [{xpre!r}, {xcur!r}]")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C gets an inf or NaN step here, which the test below rejects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise SolverError(f"brentq: no convergence after {maxiter} iterations "
                      f"(x = {xcur!r})")


def logsumexp(a, axis: int | None = None, b=None):
    """log(sum(b * exp(a))) over axis (None or -1), as SciPy's.

    Splits the max terms off the sum (Blanchard, Higham & Higham, IMA J.
    Numer. Anal. 41, 2021), and where that is not finite returns the direct
    log of the sum of the original terms.  Zero weights drop their terms;
    a negative total gives NaN.  a must be nonempty; float64 only.
    """
    a = np.asarray(a, dtype=float)
    if b is not None:
        a, b = np.broadcast_arrays(a, np.asarray(b, dtype=float))
    a = np.atleast_1d(a)
    b = None if b is None else np.atleast_1d(b)
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = a if b is None else np.where(b == 0, -np.inf, a)
        a_max = np.max(rest, axis=axis, keepdims=True)
        i_max = rest == a_max
        rest = np.where(i_max, -np.inf, rest)
        i_max = i_max.astype(float)
        m = np.sum(i_max if b is None else b * i_max, axis=axis,
                   keepdims=True, dtype=float)
        terms = (np.exp(rest - a_max) if b is None
                 else b * np.exp(rest - a_max))
        s = np.sum(terms, axis=axis, keepdims=True, dtype=float)
        s = np.where(s == 0, s, s / m)
        sgn = np.sign(s + 1) * np.sign(m)
        s = np.where(s < -1, -s - 2, s)
        out = np.log1p(s) + np.log(np.abs(m)) + a_max
    out[sgn < 0] = np.nan
    finite = np.isfinite(out)
    if not finite.all():
        # SciPy evaluates this fallback everywhere; only these rows use it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            direct = np.log(np.sum(np.exp(a) if b is None else b * np.exp(a),
                                   axis=axis, keepdims=True))
        out = np.where(finite, out, direct)
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def linear_sampler(axes, values: np.ndarray):
    """Multilinear interpolant of values on the ascending grid axes.

    The port of SciPy's RegularGridInterpolator(axes, values, "linear",
    bounds_error=False, fill_value=None) for values that stack components
    after the grid axes: points outside the box extrapolate from the edge
    cell, and a NaN coordinate gives a NaN row through the weights.
    """
    grid = tuple(np.asarray(g, dtype=float) for g in axes)
    ndim = len(grid)
    vslice = (slice(None),) + (None,) * (values.ndim - ndim)

    def sample(xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        shape = (-1, ndim) if xi.ndim == 1 else xi.shape
        xi = xi.reshape(-1, ndim)
        corners = []
        for g, x in zip(grid, xi.T):
            i = np.clip(np.searchsorted(g, x, side="right") - 1, 0, g.size - 2)
            d = (x - g[i]) / (g[i + 1] - g[i])
            corners.append(((i, 1 - d), (i + 1, d)))
        # the hypercube sum in SciPy's _evaluate_linear order
        value = np.array([0.])
        for vertex in itertools.product(*corners):
            edge, weights = zip(*vertex)
            weight = np.array([1.])
            for w in weights:
                weight = weight * w
            value = value + values[edge] * weight[vslice]
        return value.reshape(shape[:-1] + values.shape[ndim:])

    return sample
