"""Input gates, numpy ports of the four SciPy routines the solvers call, and
the certified lower envelope of lines.

The gates raise InputError for a non-finite real or a non-integer count.
Each port performs the same float operations in the same order as the SciPy
1.17 code it replaces, so it returns the same bits; the tests hold each one
to its SciPy original with exact equality.  Keeping them here lets the
package run on numpy alone.  The envelope names, for each query point, the
line an exhaustive float scan would pick, or marks the point for that scan.
"""

from __future__ import annotations

import array
import bisect
import itertools
import math
import numbers
import operator

import numpy as np

from .errors import InputError, SolverError

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # covers any rounding in the subnormals
_RTOL = 4 * _EPS

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


# sign requirement of the real gates, for a scalar or an array
_SIGN_TESTS = {"": lambda v: True, "positive": lambda v: v > 0,
               "nonnegative": lambda v: v >= 0}


def check_real(value, name: str, sign: str = ""):
    """value, unchanged, if finite and, per sign, "positive" or "nonnegative"."""
    try:
        if math.isfinite(value) and _SIGN_TESTS[sign](value):
            return value
    except (TypeError, OverflowError):  # not a real number, or an int past float
        pass
    raise InputError(f"{name} must be finite" + (sign and f" and {sign}"))


def _integral(value) -> bool:
    # an integer or an integral float (2.0 too), but not a bool
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or float(value).is_integer()))


def check_count(value, name: str, low: int = 0) -> int:
    """int(value) for an integral number (2.0 too, no bool) in [low, MAX_COUNT]."""
    if _integral(value) and low <= int(value) <= MAX_COUNT:
        return int(value)
    kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
        low, f"an integer >= {low}")
    raise InputError(f"{name} must be {kind} and must not exceed 2**52")


def check_index(value, name: str, size: int) -> int:
    """int(value) for an integral index (2.0 too, no bool) in [-size, size).

    A negative index counts from the end, as in a Python sequence.
    """
    if _integral(value) and -size <= int(value) < size:
        return int(value)
    raise InputError(f"{name} must be an integer in [-{size}, {size})")


def check_grid(values, name: str, sign: str) -> np.ndarray:
    """values as a nonempty increasing 1-d float array passing check_real."""
    a = np.asarray(values, dtype=float)
    if not (a.ndim == 1 and a.size and np.all(np.isfinite(a) & _SIGN_TESTS[sign](a))
            and np.all(np.diff(a) > 0)):
        raise InputError(f"{name} must be a nonempty, finite, {sign}, increasing sequence")
    return a


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
    when maxiter iterations do not converge.  Each evaluation is one call of
    f, NaN-tested inline: bose_gas._low_roots solves every level this way.
    """
    # Python floats throughout: a zero step denominator then raises the
    # ZeroDivisionError caught below, where numpy scalars would give NaN
    xtol, rtol, maxiter = float(xtol), float(rtol), operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = float(f(xpre))
    if fpre != fpre:
        raise SolverError(f"brentq: f is NaN at x = {xpre!r}")
    fcur = float(f(xcur))
    if fcur != fcur:
        raise SolverError(f"brentq: f is NaN at x = {xcur!r}")
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
        fcur = float(f(xcur))
        if fcur != fcur:
            raise SolverError(f"brentq: f is NaN at x = {xcur!r}")
    raise SolverError(f"brentq: no convergence after {maxiter} iterations "
                      f"(x = {xcur!r})")


def logsumexp(a, axis: int | None = None):
    """log(sum(exp(a))) over axis (None or -1), as SciPy's.

    Splits the max terms off the sum (Blanchard, Higham & Higham, IMA J.
    Numer. Anal. 41, 2021), and where that is not finite returns the direct
    log of the sum of the original terms.  a must be nonempty; float64 only.
    A weighted sum of exponentials is the caller's: add ln b to a.

    One temporary the size of a: SciPy's exp(where(i_max, -inf, a) - a_max)
    is exp(a - a_max) with its max terms set to 0, except where a_max is
    -inf (0 here, NaN there), and there both sums lead to the fallback.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        i_max = a == a_max
        m = np.count_nonzero(i_max, axis=axis, keepdims=True)
        d = np.subtract(a, a_max)
        np.exp(d, out=d)
        np.copyto(d, 0.0, where=i_max)
        s = np.sum(d, axis=axis, keepdims=True, dtype=float)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    finite = np.isfinite(out)
    if not finite.all():
        # SciPy evaluates this fallback everywhere; only these rows use it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
        out = np.where(finite, out, direct)
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def linear_sampler(axes, values: np.ndarray):
    """Multilinear interpolant of values on the ascending grid axes.

    The port of SciPy's RegularGridInterpolator(axes, values, "linear",
    bounds_error=False, fill_value=None) for values that stack components
    after the grid axes: points outside the box extrapolate from the edge
    cell, and a NaN coordinate gives a NaN row through the weights.

    sample.point(x) is sample(x)[0] for one point x of ndim floats, as a
    list of the components in C order, computed in Python floats with the
    same operations in the same order; the first call builds its tables.
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

    tables = None

    def point(x) -> list[float]:
        nonlocal tables
        if tables is None:
            # (nodes, last cell, flat stride) per axis, the values in C
            # order and the number of components
            tables = ([(g.tolist(), g.size - 2, math.prod(values.shape[k + 1:]))
                       for k, g in enumerate(grid)],
                      array.array("d", np.asarray(values, dtype=float).tobytes()),
                      math.prod(values.shape[ndim:]))
        axis_tables, flat, size = tables
        # searchsorted's cell, clipped; bisect_right also puts NaN past the end
        corners = []
        for (g, top, stride), xk in zip(axis_tables, x):
            xk = float(xk)
            i = min(max(bisect.bisect_right(g, xk) - 1, 0), top)
            d = (xk - g[i]) / (g[i + 1] - g[i])
            corners.append(((i * stride, 1. - d), ((i + 1) * stride, d)))
        value = [0.] * size
        for vertex in itertools.product(*corners):
            base, weight = 0, 1.
            for offset, w in vertex:
                base += offset
                weight = weight * w
            for k in range(size):
                value[k] = value[k] + flat[base + k] * weight
        return value

    sample.point = point
    return sample


# ---------------------------------------------------------------------------
# lower envelope of lines

def lower_envelope(slopes, intercepts) -> tuple[np.ndarray, np.ndarray]:
    """(vertices, breaks) of the lower envelope of intercepts + slopes * q.

    vertices are line indices in order of increasing q (falling slope), and
    vertices[k + 1] takes over from vertices[k] at breaks[k], rounded from
    the exact crossing.  Of lines of equal slope the smallest intercept,
    then the smallest index, stays.  The hull is that of the float lines
    taken exactly: each orientation test whose float value lies within its
    rounding bound is redone in rationals, and three lines through one
    point leave the middle one out.  Inputs must be finite.
    """
    m = np.asarray(slopes, dtype=float)
    c = np.asarray(intercepts, dtype=float)
    order = np.lexsort((np.arange(m.size), c, -m))
    first = np.ones(m.size, dtype=bool)
    first[1:] = m[order][1:] != m[order][:-1]
    order = order[first]
    ms, cs = m[order].tolist(), c[order].tolist()
    # Andrew's monotone chain (Comput. Geom. 1979) in the dual: b leaves
    # when the line after it crosses a no later than b does
    hull: list[int] = []
    for k in range(len(ms)):
        mk, ck = ms[k], cs[k]
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            p1 = (ck - cs[a]) * (ms[a] - ms[b])
            p2 = (cs[b] - cs[a]) * (ms[a] - mk)
            turn = p1 - p2
            if not abs(turn) > 4 * _EPS * (abs(p1) + abs(p2)) + _TINY:
                turn = _exact_turn(ms[a], cs[a], ms[b], cs[b], mk, ck)
            if turn > 0:
                break
            hull.pop()
        hull.append(k)
    return _with_breaks(m, c, order[hull])


def _exact_turn(ma: float, ca: float, mb: float, cb: float, mk: float,
                ck: float):
    # the float turn of lower_envelope in rationals, which floats convert to
    # exactly; the import waits for the first close call
    from fractions import Fraction
    fa, fb = Fraction(ma), Fraction(ca)
    return ((Fraction(ck) - fb) * (fa - Fraction(mb))
            - (Fraction(cb) - fb) * (fa - Fraction(mk)))


def _with_breaks(m: np.ndarray, c: np.ndarray,
                 vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mv, cv = m[vertices], c[vertices]
    with np.errstate(all="ignore"):
        breaks = (cv[1:] - cv[:-1]) / (mv[:-1] - mv[1:])
    # each crossing is rounded from an increasing exact one; the running
    # max keeps the order and stays within that rounding
    return vertices, np.maximum.accumulate(breaks)


def envelope_argmin(slopes, intercepts, q, error=0.0) -> tuple[np.ndarray, np.ndarray]:
    """(owner, uncertified): the lowest line at each point of the 1-d q.

    At a certified q the float values intercepts + slopes * q have a strict
    unique minimum at owner, and so do the caller's own float evaluations of
    its lines, as long as each lies within error (a scalar or one bound per
    q) of its line's exact value.  The certificate: the lowest other line,
    found exactly, trails owner at q by more than a margin of 16 eps
    (max|intercept| + |q| max|slope|) plus twice error.  The uncertified q,
    and every q when a line is not finite, are the caller's to scan
    exhaustively.
    """
    m = np.asarray(slopes, dtype=float)
    c = np.asarray(intercepts, dtype=float)
    q = np.asarray(q, dtype=float)
    if not (q.size and np.all(np.isfinite(m)) and np.all(np.isfinite(c))):
        return np.zeros(q.shape, dtype=np.intp), np.ones(q.shape, dtype=bool)
    vertices, breaks = lower_envelope(m, c)
    last = vertices.size - 1

    def at(lines):
        return c[lines] + m[lines] * q

    with np.errstate(all="ignore"):
        k = np.searchsorted(breaks, q)
        owner = vertices[k]
        margin = (16 * _EPS * (np.max(np.abs(c)) + np.abs(q) * np.max(np.abs(m)))
                  + 2 * np.asarray(error, dtype=float) + _TINY)
        # the exact values of the vertices fall toward the exact owner and
        # rise past it: the lowest other vertex is a neighbour of it, and
        # where k is not the owner, a neighbour of k is no higher
        runner_up = np.minimum(
            np.where(k > 0, at(vertices[k - 1]), np.inf),
            np.where(k < last, at(vertices[np.minimum(k + 1, last)]), np.inf))
        # on the owners' intervals a line off the envelope at least as steep
        # as the vertex before the first owner trails that vertex, and one
        # no steeper than the vertex after the last owner trails that one
        lo, hi = k.min(), k.max()
        rest = np.ones(m.size, dtype=bool)
        rest[vertices] = False
        rest &= m < (m[vertices[lo - 1]] if lo else np.inf)
        rest &= m > (m[vertices[hi + 1]] if hi < last else -np.inf)
        rest = np.flatnonzero(rest)
        if rest.size:
            # the lowest of the rest owns their envelope at q.  Each finite
            # rounded break, widened by its rounding, holds the exact one,
            # so q lies in the interval of first, of end or of one between;
            # where none lies between, the lower of the two is the lowest
            inner, cuts = lower_envelope(m[rest], c[rest])
            slack = 4 * _EPS * np.abs(cuts) + _TINY
            first = np.searchsorted(cuts + slack, q)
            end = np.searchsorted(cuts - slack, q)
            known = (end - first < 2) & np.all(np.isfinite(cuts))
            lowest = np.minimum(at(rest[inner[first]]), at(rest[inner[end]]))
            runner_up = np.minimum(runner_up, np.where(known, lowest, -np.inf))
        ok = runner_up - at(owner) > margin
    return owner, ~ok
