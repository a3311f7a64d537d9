"""Numpy ports of the three scipy routines the solvers call.

Each port performs the same float operations in the same order as the scipy
1.17 code it replaces, so it returns the same bits; the tests hold each one
to its scipy original with exact equality.  Keeping them here lets every
command except the gammaln users run on numpy alone.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .errors import SolverError

_RTOL = 4 * np.finfo(float).eps


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = _RTOL,
           maxiter: int = 100) -> float:
    """Root of f on [a, b] by Brent's method, as scipy's brentq.c codes it.

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
    """log(sum(b * exp(a))) over axis (None or -1), as scipy.special's.

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
    with np.errstate(divide="ignore", invalid="ignore"):
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
        # scipy evaluates this fallback everywhere; only these rows use it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            direct = np.log(np.sum(np.exp(a) if b is None else b * np.exp(a),
                                   axis=axis, keepdims=True))
        out = np.where(finite, out, direct)
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def linear_sampler(axes, values: np.ndarray):
    """Multilinear interpolant of values on the ascending grid axes.

    The port of scipy's RegularGridInterpolator(axes, values, "linear",
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
        # the hypercube sum in scipy's _evaluate_linear order
        value = np.array([0.])
        for vertex in itertools.product(*corners):
            edge, weights = zip(*vertex)
            weight = np.array([1.])
            for w in weights:
                weight = weight * w
            value = value + values[edge] * weight[vslice]
        return value.reshape(shape[:-1] + values.shape[ndim:])

    return sample
