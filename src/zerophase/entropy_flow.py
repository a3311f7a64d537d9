"""Steepest-ascent entropy dynamics on gridded scalar fields.

An entropy landscape H on a 1-d or 2-d box evolves three ways here: particle
trajectories climb the interpolated gradient (x' = c(H) grad H), the field
itself evolves by quadratic-kernel convolution (Hopf-Lax, in both the
max/ascent form consistent with entropy increase and the literal min form),
and a log-Gaussian smoothing replaces the hard envelope with a heat-kernel
quadrature whose exponential is an exact heat-equation solution up to
stencil error.  Price observables ride along ascent trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.special import logsumexp

from .errors import InputError

_BOUNDARIES = ("clamped", "periodic")
_MODES = ("min", "max")


@dataclass(frozen=True)
class EntropyField:
    """Scalar field sampled on a uniform rectangular grid (1-d or 2-d)."""

    origin: tuple
    spacing: tuple
    H: np.ndarray

    def __post_init__(self) -> None:
        H = np.asarray(self.H, dtype=float)
        if H.ndim not in (1, 2):
            raise InputError("field must be 1-d or 2-d")
        if any(s < 3 for s in H.shape):
            raise InputError("grid needs at least 3 nodes per axis")
        if not np.all(np.isfinite(H)):
            raise InputError("field values must be finite")
        origin = tuple(float(v) for v in np.atleast_1d(self.origin))
        spacing = tuple(float(v) for v in np.atleast_1d(self.spacing))
        if len(origin) != H.ndim or len(spacing) != H.ndim:
            raise InputError("origin/spacing must match the field dimension")
        if any(s <= 0 for s in spacing):
            raise InputError("spacing must be positive")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "H", H)

    @property
    def ndim(self) -> int:
        return self.H.ndim

    @property
    def shape(self) -> tuple:
        return self.H.shape

    def axes(self) -> tuple:
        return tuple(self.origin[d] + self.spacing[d] * np.arange(self.shape[d])
                     for d in range(self.ndim))

    def box(self) -> tuple:
        """(lower, upper) corner coordinates of the sampled box."""
        lo = np.array(self.origin)
        hi = lo + (np.array(self.shape) - 1) * np.array(self.spacing)
        return lo, hi

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, ndim), C order."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    @classmethod
    def from_function(cls, fn: Callable, origin: Sequence[float],
                      spacing: Sequence[float], shape: Sequence[int]
                      ) -> "EntropyField":
        origin = tuple(float(v) for v in np.atleast_1d(origin))
        spacing = tuple(float(v) for v in np.atleast_1d(spacing))
        shape = tuple(int(v) for v in np.atleast_1d(shape))
        axes = [origin[d] + spacing[d] * np.arange(shape[d])
                for d in range(len(shape))]
        grids = np.meshgrid(*axes, indexing="ij")
        H = np.asarray(fn(*grids), dtype=float)
        return cls(origin=origin, spacing=spacing, H=H)


@dataclass(frozen=True)
class FlowConfig:
    """Time-stepping plan for ascent trajectories."""

    c_of_H: Callable[[float], float] = lambda h: 1.0
    dt: float = 1e-3
    steps: int = 100
    boundary: str = "clamped"

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise InputError("dt must be positive")
        if self.steps < 1:
            raise InputError("steps must be at least 1")
        if self.boundary not in _BOUNDARIES:
            raise InputError(f"boundary must be one of {_BOUNDARIES}")


def _gradient_arrays(field: EntropyField, boundary: str) -> list:
    H = field.H
    if boundary == "periodic":
        grads = []
        for d in range(field.ndim):
            h = field.spacing[d]
            grads.append((np.roll(H, -1, axis=d) - np.roll(H, 1, axis=d))
                         / (2.0 * h))
        return grads
    g = np.gradient(H, *field.spacing)
    return [g] if field.ndim == 1 else list(g)


def _interpolators(field: EntropyField, boundary: str):
    axes = field.axes()
    grads = _gradient_arrays(field, boundary)
    ih = RegularGridInterpolator(axes, field.H, method="linear",
                                 bounds_error=False, fill_value=None)
    igs = [RegularGridInterpolator(axes, g, method="linear",
                                   bounds_error=False, fill_value=None)
           for g in grads]
    return ih, igs


def _wrap(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    span = hi - lo
    return lo + np.mod(x - lo, span)


@dataclass(frozen=True)
class Trajectory:
    points: np.ndarray
    H_values: np.ndarray
    exited: bool


def ascent_trajectory(field: EntropyField, config: FlowConfig,
                      x0: Sequence[float]) -> Trajectory:
    """Explicit Euler walk along c(H) * grad H from x0.

    Under the clamped boundary a step that would leave the box truncates the
    walk and sets the exited flag; the periodic boundary wraps instead.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (field.ndim,):
        raise InputError("x0 dimension must match the field")
    lo, hi = field.box()
    if np.any(x < lo) or np.any(x > hi):
        raise InputError("x0 must lie inside the sampled box")
    ih, igs = _interpolators(field, config.boundary)
    pts = [x.copy()]
    hv = [float(ih(x)[0])]
    exited = False
    for _ in range(config.steps):
        grad = np.array([float(gi(x)[0]) for gi in igs])
        c = float(config.c_of_H(hv[-1]))
        if c <= 0:
            raise InputError("c_of_H must be positive on the field's range")
        x_new = x + config.dt * c * grad
        if config.boundary == "periodic":
            x_new = _wrap(x_new, lo, hi)
        elif np.any(x_new < lo) or np.any(x_new > hi):
            exited = True
            break
        x = x_new
        pts.append(x.copy())
        hv.append(float(ih(x)[0]))
    return Trajectory(points=np.array(pts), H_values=np.array(hv),
                      exited=exited)


# ---------------------------------------------------------------------------
# Hopf-Lax evolution by exact per-axis node scans
#
# The kernel (x-xi)^2/(2t) is a sum of per-axis terms, so every transform
# below is a sequence of exhaustive 1-d scans, one per grid axis; over the
# whole grid this is exact (Felzenszwalb & Huttenlocher, "Distance
# Transforms of Sampled Functions", Theory of Computing 8, 2012).


def _axis_scan(V: np.ndarray, x: np.ndarray, axis: int, terms: Callable,
               reduce: Callable) -> np.ndarray:
    """Reduce terms(V_j, x_i, x_j) over the nodes x_j of one grid axis.

    axis counts from the end, so V and the reduction may carry leading
    stacked components.  terms gets V with the scanned axis last and a new
    output-node axis before it, a chunk of output nodes x_i as a column and
    all nodes x_j as a row; reduce collapses the last axis.  Chunks keep
    each block of terms near 4e6 elements.  terms should build (x_i - x_j)^2
    inside one expression, so numpy reuses that temporary in place and no
    extra chunk-sized array is alive while reduce runs.
    """
    Vm = np.moveaxis(V, axis, -1)[..., None, :]
    n = x.size
    rows = max(1, min(n, int(4e6) // Vm.size))
    out = np.concatenate(
        [reduce(terms(Vm, x[s:s + rows, None], x[None, :]))
         for s in range(0, n, rows)], axis=-1)
    return np.moveaxis(out, -1, axis)


def hopf_lax(field0: EntropyField, t: float, mode: str = "max") -> EntropyField:
    """Quadratic-kernel envelope of the field after time t.

    mode "max" is the ascent form max_xi [H0(xi) - (x-xi)^2/(2t)], which can
    only raise the field (take xi = x); mode "min" is the literal
    inf-convolution min_xi [(x-xi)^2/(2t) + H0(xi)], which can only lower
    it.  Both scan every grid node exactly, one axis at a time.
    """
    if t <= 0:
        raise InputError("t must be positive")
    if mode not in _MODES:
        raise InputError(f"mode must be one of {_MODES}")
    if mode == "max":
        terms, reduce = lambda v, xi, xj: v - (xi - xj) ** 2 / (2.0 * t), np.max
    else:
        terms, reduce = lambda v, xi, xj: v + (xi - xj) ** 2 / (2.0 * t), np.min
    H = field0.H
    for d, x in enumerate(field0.axes()):
        H = _axis_scan(H, x, d - field0.ndim, terms,
                       lambda a: reduce(a, axis=-1))
    return EntropyField(origin=field0.origin, spacing=field0.spacing, H=H)


def log_gaussian_smoothing(field0: EntropyField, t: float,
                           k: int | None = None) -> EntropyField:
    """Smoothed envelope ln[t^{-k/2} sum_xi e^{-(x-xi)^2/(2t)} e^{H0} h^k].

    The soft counterpart of the max envelope; adding a constant to H0 adds
    the same constant here, exactly.
    """
    if t <= 0:
        raise InputError("t must be positive")
    if k is None:
        k = field0.ndim
    if k != field0.ndim:
        raise InputError("k must equal the field dimension")
    log_hk = float(np.sum(np.log(field0.spacing)))
    H = field0.H
    for d, x in enumerate(field0.axes()):
        H = _axis_scan(H, x, d - k,
                       lambda v, xi, xj: v - (xi - xj) ** 2 / (2.0 * t),
                       lambda a: logsumexp(a, axis=-1))
    H += log_hk - 0.5 * k * math.log(t)
    return EntropyField(origin=field0.origin, spacing=field0.spacing, H=H)


def heat_semigroup_residual(field0: EntropyField, t: float) -> float:
    """Max heat-equation defect of u = t^{k/2} e^{smoothed H} on the grid.

    u_t is evaluated analytically (the quadrature kernel solves the heat
    equation exactly), so the returned number is pure second-order stencil
    error of the discrete Laplacian: halving the spacing divides it by
    about 4.
    """
    if t <= 0:
        raise InputError("t must be positive")
    k = field0.ndim
    log_hk = float(np.sum(np.log(field0.spacing)))

    # Each axis multiplies in its kernel factor and adds its own u_t term,
    # w * d(ln kernel)/dt = w * (d^2/(2t^2) - 1/(2t)); the u_t of earlier
    # axes rides along linearly.  The first axis starts from the log field.
    def rate(w, sq):
        return np.sum(w * (sq / (2.0 * t * t) - 1 / (2.0 * t)), axis=-1)

    def first_terms(v, xi, xj):
        sq = (xi - xj) ** 2
        return np.exp(v - sq / (2.0 * t) + log_hk), sq

    def first_reduce(p):
        w, sq = p
        return np.stack((np.sum(w, axis=-1), rate(w, sq)))

    def later_terms(v, xi, xj):
        sq = (xi - xj) ** 2
        return v * np.exp(-sq / (2.0 * t)), sq

    def later_reduce(p):
        w, sq = p
        return np.stack((np.sum(w[0], axis=-1),
                         np.sum(w[1], axis=-1) + rate(w[0], sq)))

    axes = field0.axes()
    u_ut = _axis_scan(field0.H, axes[0], -k, first_terms, first_reduce)
    for d in range(1, k):
        u_ut = _axis_scan(u_ut, axes[d], d - k, later_terms, later_reduce)
    u, ut = u_ut

    lap = np.zeros_like(u)
    for d in range(k):
        h = field0.spacing[d]
        sl_mid = [slice(1, -1) if a == d else slice(None) for a in range(k)]
        sl_lo = [slice(0, -2) if a == d else slice(None) for a in range(k)]
        sl_hi = [slice(2, None) if a == d else slice(None) for a in range(k)]
        lap[tuple(sl_mid)] += (u[tuple(sl_hi)] - 2.0 * u[tuple(sl_mid)]
                               + u[tuple(sl_lo)]) / (h * h)
    interior = tuple(slice(1, -1) for _ in range(k))
    return float(np.max(np.abs(ut[interior] - 0.5 * lap[interior])))


# ---------------------------------------------------------------------------
# price transport along ascent trajectories


@dataclass(frozen=True)
class PriceTransport:
    trajectory: Trajectory
    ode_route: np.ndarray
    chain_route: np.ndarray


def price_transport(field: EntropyField, config: FlowConfig,
                    price_fields: Sequence[EntropyField],
                    x0: Sequence[float]) -> PriceTransport:
    """Transport price fields along the ascent trajectory, both ways.

    Route one integrates d lambda/dt = grad lambda . c(H) grad H with the
    same Euler steps as the trajectory; route two just evaluates lambda at
    the moving point.  The two agree to O(dt) on smooth fields.
    """
    for pf in price_fields:
        if pf.shape != field.shape or pf.origin != field.origin \
                or pf.spacing != field.spacing:
            raise InputError("price fields must share the entropy field's grid")
    traj = ascent_trajectory(field, config, x0)
    ih, igs = _interpolators(field, config.boundary)
    price_interp = []
    for pf in price_fields:
        pih, pigs = _interpolators(pf, config.boundary)
        price_interp.append((pih, pigs))

    pts = traj.points
    npts = pts.shape[0]
    nprices = len(price_fields)
    chain = np.empty((npts, nprices))
    for j, (pih, _) in enumerate(price_interp):
        chain[:, j] = pih(pts)

    ode = np.empty_like(chain)
    ode[0] = chain[0]
    for i in range(npts - 1):
        x = pts[i]
        gradH = np.array([float(gi(x)[0]) for gi in igs])
        c = float(config.c_of_H(float(ih(x)[0])))
        for j, (_, pigs) in enumerate(price_interp):
            gradL = np.array([float(gi(x)[0]) for gi in pigs])
            ode[i + 1, j] = ode[i, j] + config.dt * c * float(gradL @ gradH)
    return PriceTransport(trajectory=traj, ode_route=ode, chain_route=chain)


def calibrate_c(dlambda_dt: float, field: EntropyField,
                price_field: EntropyField, x: Sequence[float],
                boundary: str = "clamped") -> float:
    """Recover c(H) at x from one observed price drift.

    c = (d lambda/dt) / (grad lambda . grad H); an orthogonal or vanishing
    gradient pairing leaves c undetermined and raises.
    """
    _, igs = _interpolators(field, boundary)
    _, pigs = _interpolators(price_field, boundary)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    gradH = np.array([float(gi(xv)[0]) for gi in igs])
    gradL = np.array([float(gi(xv)[0]) for gi in pigs])
    denom = float(gradL @ gradH)
    if abs(denom) < 1e-14:
        raise InputError("price insensitive to entropy gradient at x")
    return float(dlambda_dt) / denom
