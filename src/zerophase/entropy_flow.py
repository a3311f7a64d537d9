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

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._numeric import (_EPS, check_count, check_real, envelope_argmin,
                       linear_sampler, logsumexp)
from .errors import InputError

_BOUNDARIES = ("clamped", "periodic")
_MODES = ("min", "max")


@dataclass(frozen=True)
class EntropyField:
    """Scalar field sampled on a uniform rectangular grid (1-d or 2-d).

    The node coordinates origin + spacing * k of each axis must be finite
    and strictly increasing in float.  H is the field's own read-only copy,
    so the (H, grad H) interpolants it caches per boundary stay its own.
    """

    origin: tuple
    spacing: tuple
    H: np.ndarray

    def __post_init__(self) -> None:
        H = np.array(self.H, dtype=float)
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
        for o, s in zip(origin, spacing):
            check_real(o, "origin")
            check_real(s, "spacing", "positive")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        H.flags.writeable = False
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "_samplers", {})
        # in float the nodes can still overflow or collapse (origin 1e17,
        # spacing 1), and every distance would be wrong
        with np.errstate(over="ignore", invalid="ignore"):
            for x in self.axes():
                if not (np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)):
                    raise InputError("node coordinates of each axis must be "
                                     "finite and strictly increasing")

    def __getstate__(self) -> dict:
        # the cached interpolants are closures, which do not pickle; a copy
        # builds its own
        return {k: v for k, v in vars(self).items() if k != "_samplers"}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state, _samplers={})
        self.H.flags.writeable = False

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
        shape = tuple(check_count(v, "shape") for v in np.atleast_1d(shape))
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
        check_real(self.dt, "dt", "positive")
        object.__setattr__(self, "steps", check_count(self.steps, "steps", 1))
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


def _sampler(field: EntropyField, boundary: str):
    """Linear interpolant of (H, dH/dx_1, ..., dH/dx_k): one call, one row.

    Built once per field and boundary.
    """
    sample = field._samplers.get(boundary)
    if sample is None:
        values = np.stack([field.H, *_gradient_arrays(field, boundary)], axis=-1)
        sample = field._samplers[boundary] = linear_sampler(field.axes(), values)
    return sample


def _point_in_box(field: EntropyField, x: Sequence[float], name: str) -> np.ndarray:
    """x as a float array; a NaN coordinate fails the box test too."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = field.box()
    if x.shape != (field.ndim,) or not np.all((lo <= x) & (x <= hi)):
        raise InputError(f"{name} must be a point of the sampled box")
    return x


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
    return _walk(field, config, x0)[0]


def _walk(field: EntropyField, config: FlowConfig,
          x0: Sequence[float]) -> tuple[Trajectory, np.ndarray]:
    """ascent_trajectory, and the sampled rows (H, grad H) of its points."""
    x = _point_in_box(field, x0, "x0").tolist()
    lo, hi = field.box()
    bounds = list(zip(lo.tolist(), hi.tolist()))
    spans = (hi - lo).tolist()
    point = _sampler(field, config.boundary).point
    # the walk in Python floats, with the float operations of the array form
    # x + dt * c * grad H, wrapped as lo + np.mod(x - lo, hi - lo): float %
    # takes np.mod's fmod and sign adjustment
    row = point(x)
    # points and rows, each in one flat list
    pts, rows = list(x), list(row)
    exited = False
    for _ in range(config.steps):
        c = check_real(float(config.c_of_H(row[0])), "c_of_H on the field's range",
                       "positive")
        step = float(config.dt * c)
        x_new = [a + step * g for a, g in zip(x, row[1:])]
        if config.boundary == "periodic":
            x_new = [a_lo + (a - a_lo) % span
                     for a, (a_lo, _), span in zip(x_new, bounds, spans)]
        elif any(a < a_lo or a > a_hi for a, (a_lo, a_hi) in zip(x_new, bounds)):
            exited = True
            break
        x = x_new
        row = point(x)
        pts += x
        rows += row
    rows = np.array(rows).reshape(-1, len(row))
    traj = Trajectory(points=np.array(pts).reshape(-1, len(x)),
                      H_values=rows[:, 0].copy(), exited=exited)
    return traj, rows


# ---------------------------------------------------------------------------
# Hopf-Lax evolution, one grid axis at a time
#
# The kernel (x-xi)^2/(2t) is a sum of per-axis terms, so every transform
# below is a sequence of 1-d transforms, one per grid axis; over the whole
# grid this is exact (Felzenszwalb & Huttenlocher, "Distance Transforms of
# Sampled Functions", Theory of Computing 8, 2012).  On a uniform axis the
# smoothing's kernel e^(-(x_i - x_j)^2/(2t)) depends only on i - j, so it is
# a Toeplitz sum of e^(H - max H) in the linear domain, with the pairwise
# log-domain scan kept for the nodes its range certificate leaves out.  The
# heat residual scans every node pair of an axis.  The max and min envelopes
# are lower envelopes of lines in x,
#
#     V_j -/+ (x - x_j)^2/(2t) = -/+ (x^2/(2t) + [x_j^2/(2t) -/+ V_j] - (x_j/t) x),
#
# so a 1-d field of at least _ENVELOPE_MIN_NODES nodes takes them from the
# envelope with a certified exhaustive fallback: the envelope names each
# node's winner, which is re-evaluated with the scan's own expression, and
# the nodes it cannot certify are scanned.  Shorter fields and 2-d fields,
# whose scan batches every row in one pass, are scanned whole.

# A row of n nodes costs the scan O(n^2) and the envelope O(n log n), with
# a larger constant: on one row the envelope wins from about 224 nodes for
# a smooth field and from about 448 for a rough one (BENCH_envelope.json),
# and the rule starts at the first measured size past both crossings, so
# no measured row gets slower.
_ENVELOPE_MIN_NODES = 512

# Terms per block of _axis_scan.  A 1-d block of 2**16 terms, its squared
# distances and one temporary of its size take 1.5 MB, and stay in a core's
# 2 MB L2; the sweep that chose it (BENCH_blocks.json) was made on the
# pairwise smoothing, which the heat residual's scan resembles.
_SCAN_BLOCK = 2 ** 16

# A scan of at least _SPLIT_MIN_BLOCKS blocks splits them between the
# calling thread and a second thread started for that scan, when the
# process may run on two CPUs; numpy releases the GIL inside the block's
# ufuncs and reductions.
# The 4001-node 1-d heat residual has 251 blocks and the 2-d heat
# residual's stacked second axis 8.  A 61-node envelope axis, or one of the
# pairwise smoothing, has 4 and stays serial: split, it ran 12-28% slower
# when the host gave the second CPU no throughput, for a gain of about 1 ms
# when it did (BENCH_threads.json).
_SPLIT_MIN_BLOCKS = 8


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# scan threads, the caller included
_SCAN_THREADS = min(2, _available_cpus())


# held while a scan thread is alive; see _split
_split_lock = threading.Lock()


def _split(scan: Callable, starts: range) -> list:
    """scan(starts): the first half of starts on this thread, the second on
    a thread started for this call, concatenated in block order.

    The second half runs in the caller's context, so that the caller's
    np.errstate holds in both halves, and the call returns only after both;
    it re-raises the caller's error first, else the thread's.  The lock
    bounds the scan threads at one: a call that finds it held scans all of
    starts on its own thread, with the same bits, since every output row
    is reduced on its own.  A child forked mid-split inherits the lock held
    and no thread to release it, so its scans run serially and never wait.
    """
    if not _split_lock.acquire(blocking=False):
        return scan(starts)
    try:
        half = (len(starts) + 1) // 2
        context = contextvars.copy_context()
        tail, error = [], []

        def scan_tail() -> None:
            try:
                tail.extend(context.run(scan, starts[half:]))
            except BaseException as exc:  # the caller re-raises it
                error.append(exc)

        thread = threading.Thread(target=scan_tail, daemon=True,
                                  name="zerophase-scan")
        thread.start()
        try:
            head = scan(starts[:half])
        finally:
            thread.join()
    finally:
        _split_lock.release()
    if error:
        raise error[0]
    return head + tail


def _axis_scan(V: np.ndarray, x: np.ndarray, axis: int, reduce: Callable,
               xi: np.ndarray | None = None) -> np.ndarray:
    """Reduce the terms of V_j and (x_i - x_j)^2 over the nodes x_j of one axis.

    axis counts from the end, so V and the reduction may carry leading
    stacked components.  The output nodes x_i are xi, all of x by default.
    reduce(v, sq) gets V with the scanned axis last and a new output-node
    axis before it, and the squared distances sq of a block of output nodes
    (rows) to all nodes (columns); it collapses the last axis, and may
    overwrite sq.  A block holds about _SCAN_BLOCK terms, and at least two
    rows: numpy lays out the reduction of a one-row block otherwise, and
    when every block of a 2-d field has one row, their concatenation takes
    that layout and the next axis sums its rows in another order.  Every
    output row is reduced on its own, over a row laid out as at any other
    block size, so the result depends neither on the block size nor on the
    thread that reduced the block.

    reduce should let numpy allocate its one block of terms, from the first
    operation that broadcasts v against sq, and finish the block in place
    with out= ufuncs: that keeps the layout numpy picks for the block, and
    with it the summation order of the reduction, and each later pass
    finds the block still in cache.
    """
    xi = x if xi is None else xi
    Vm = np.moveaxis(V, axis, -1)[..., None, :]
    rows = max(2, _SCAN_BLOCK // Vm.size)

    def scan(starts: range) -> list:
        parts = []
        for s in starts:
            sq = xi[s:s + rows, None] - x
            sq *= sq
            parts.append(reduce(Vm, sq))
        return parts

    starts = range(0, xi.size, rows)
    if _SCAN_THREADS > 1 and len(starts) >= _SPLIT_MIN_BLOCKS:
        parts = _split(scan, starts)
    else:
        parts = scan(starts)
    return np.moveaxis(np.concatenate(parts, axis=-1), -1, axis)


def _hopf_reduce(t: float, mode: str) -> Callable:
    """The reduce of _axis_scan for the mode's envelope."""
    if mode == "max":
        return lambda v, sq: np.max(
            np.subtract(v, np.divide(sq, 2.0 * t, out=sq)), axis=-1)
    return lambda v, sq: np.min(
        np.add(v, np.divide(sq, 2.0 * t, out=sq)), axis=-1)


def _axis_envelope(V: np.ndarray, x: np.ndarray, t: float,
                   mode: str) -> np.ndarray:
    """The mode's _axis_scan of the 1-d V on the nodes x.

    Each node's winner comes from the lower envelope of the lines, and the
    scan's own terms re-evaluate it; the nodes the envelope does not
    certify go through _axis_scan.  The margin must cover the rounding of
    the lines and of the terms: 8 eps of max|V| + (max x^2 + span^2)/(2t)
    + |x| max|x|/t bounds both.
    """
    reduce = _hopf_reduce(t, mode)
    with np.errstate(over="ignore", invalid="ignore"):
        half_sq = x * x / (2.0 * t)
        reach = max(abs(x[0]), abs(x[-1]))
        rounding = 8 * _EPS * ((reach * reach + (x[-1] - x[0]) ** 2) / (2.0 * t)
                               + np.abs(x) * reach / t + np.max(np.abs(V)))
    owner, uncertified = envelope_argmin(
        -x / t, half_sq - V if mode == "max" else half_sq + V, x, rounding)
    sq = x - x[owner]
    sq *= sq
    out = reduce(V[owner, None], sq[:, None])
    if uncertified.any():
        out[uncertified] = _axis_scan(V, x, -1, reduce, x[uncertified])
    return out


def hopf_lax(field0: EntropyField, t: float, mode: str = "max") -> EntropyField:
    """Quadratic-kernel envelope of the field after time t.

    mode "max" is the ascent form max_xi [H0(xi) - (x-xi)^2/(2t)], which can
    only raise the field (take xi = x); mode "min" is the literal
    inf-convolution min_xi [(x-xi)^2/(2t) + H0(xi)], which can only lower
    it.  A 1-d field of at least _ENVELOPE_MIN_NODES nodes goes by the
    lower envelope with a certified exhaustive fallback; any other field is
    scanned one axis at a time over every node pair.  Both give the scan's
    float values.
    """
    check_real(t, "t", "positive")
    if mode not in _MODES:
        raise InputError(f"mode must be one of {_MODES}")
    if field0.ndim == 1 and field0.H.size >= _ENVELOPE_MIN_NODES:
        H = _axis_envelope(field0.H, field0.axes()[0], t, mode)
    else:
        reduce = _hopf_reduce(t, mode)
        H = field0.H
        for d, x in enumerate(field0.axes()):
            H = _axis_scan(H, x, d - field0.ndim, reduce)
    return EntropyField(origin=field0.origin, spacing=field0.spacing, H=H)


# A node whose H is more than this far below max H is left to the pairwise
# scan by log_gaussian_smoothing: e^-650 is about 5e-283, so up to it the
# node's own term keeps its Toeplitz sum far above the 2.2e-308 below which
# terms underflow.
_SMOOTHING_RANGE = 650.0


def _smoothing_reduce(t: float) -> Callable:
    """The reduce of _axis_scan for the pairwise log-domain smoothing."""
    return lambda v, sq: logsumexp(
        np.subtract(v, np.divide(sq, 2.0 * t, out=sq)), axis=-1)


# Nodes per block of _gaussian_sums.  np.einsum adds a block's terms in
# order and np.sum adds the blocks, so the rounding of a sum grows with the
# block and the block count, not with the axis: one block of 4001 nodes had
# 4.1 times the error of blocks of about 256 (BENCH_toeplitz.json).
_SUM_BLOCK = 256


def _gaussian_sums(E: np.ndarray, spacing: tuple, t: float) -> np.ndarray:
    """sum_j e^{-(x_i - x_j)^2/(2t)} E_j over every node j of the grid.

    One axis at a time, as a Toeplitz sum: an axis of n nodes at spacing h
    takes its kernel values at the exact differences m h, m = 1 - n, ...,
    and splits the summed nodes into blocks of at most _SUM_BLOCK, E padded
    with zeros.  The sums run in np.einsum and np.sum, whose summation
    order, unlike that of BLAS, depends on neither the CPU nor the thread
    count.
    """
    S = E
    k = E.ndim
    for d, h in enumerate(spacing):
        n = S.shape[d]
        blocks = -(-n // _SUM_BLOCK)
        width = -(-n // blocks)
        # a difference, its square or its ratio to 2t that overflows is an
        # exact 0 of the kernel
        with np.errstate(over="ignore"):
            m = np.arange(1 - n, blocks * width) * h
            kernel = np.exp(-(m * m) / (2.0 * t))
        # toeplitz[i, b, c] is the kernel at (b width + c - i) h
        toeplitz = sliding_window_view(kernel, blocks * width)[::-1].reshape(
            n, blocks, width)
        pad = [(0, 0)] * k
        pad[d] = (0, blocks * width - n)
        S = np.pad(S, pad).reshape(S.shape[:d] + (blocks, width) + S.shape[d + 1:])
        # axis d is split into the labels k + 1 (block) and d (node in block);
        # label k is the output node
        before, after = list(range(d)), list(range(d + 1, k))
        S = np.einsum(toeplitz, [k, k + 1, d], S, before + [k + 1, d] + after,
                      before + [k, k + 1] + after).sum(axis=d + 1)
    return S


def log_gaussian_smoothing(field0: EntropyField, t: float) -> EntropyField:
    """Smoothed envelope ln[t^{-k/2} sum_xi e^{-(x-xi)^2/(2t)} e^{H0} h^k].

    k is the field dimension.  The soft counterpart of the max envelope;
    adding a constant to H0 adds the same constant here, up to rounding.

    The sum is taken in the linear domain, as ln S + max H0, where S sums
    the kernel times e^{H0 - max H0} one axis at a time (_gaussian_sums).
    Range certificate: S_i carries the node's own term e^{H0_i - max H0},
    so at a node no more than _SMOOTHING_RANGE below max H0 it is at least
    about 5e-283, and the terms that underflow (each below 2.2e-308) move
    it by nothing.  A node further below goes through the pairwise
    log-domain scan of _axis_scan, with the scan's bits: in 1-d that node
    alone, in 2-d the whole field.
    """
    check_real(t, "t", "positive")
    k = field0.ndim
    log_hk = float(np.sum(np.log(field0.spacing)))
    H0 = field0.H
    top = float(np.max(H0))
    # a field spanning more than the float range goes -inf here, and its
    # lowest nodes to the scan
    with np.errstate(over="ignore"):
        below = H0 - top
    uncertified = below < -_SMOOTHING_RANGE
    reduce = _smoothing_reduce(t)
    if k > 1 and uncertified.any():
        H = H0
        for d, x in enumerate(field0.axes()):
            H = _axis_scan(H, x, d - k, reduce)
    else:
        S = _gaussian_sums(np.exp(below), field0.spacing, t)
        # the scan below replaces these nodes, whose sums may be 0
        S[uncertified] = 1.0
        H = np.log(S)
        H += top
        if uncertified.any():
            x = field0.axes()[0]
            H[uncertified] = _axis_scan(H0, x, -1, reduce, x[uncertified])
    H += log_hk - 0.5 * k * math.log(t)
    return EntropyField(origin=field0.origin, spacing=field0.spacing, H=H)


def heat_semigroup_residual(field0: EntropyField, t: float) -> float:
    """Max heat-equation defect of u = t^{k/2} e^{smoothed H} on the grid.

    u_t is evaluated analytically (the quadrature kernel solves the heat
    equation exactly), so the returned number is pure second-order stencil
    error of the discrete Laplacian: halving the spacing divides it by
    about 4.  The stencil multiplies the rounding of u by 4/h^2, so the
    relative rounding of the result grows as h^-4: on sin 2x - 0.3 x^2
    over [-1, 1] at t = 0.2, against the same sums in long double, it is
    1e-8 at 201 nodes and 2.8e-3 at 4001, where the halving law reads
    noise.
    """
    check_real(t, "t", "positive")
    k = field0.ndim
    log_hk = float(np.sum(np.log(field0.spacing)))

    # Each axis multiplies in its kernel factor and adds its own u_t term,
    # w * d(ln kernel)/dt = w * (d^2/(2t^2) - 1/(2t)); the u_t of earlier
    # axes rides along linearly.  The first axis starts from the log field.
    # rate overwrites both of its blocks.
    def rate(w, sq):
        sq /= 2.0 * t * t
        sq -= 1 / (2.0 * t)
        return np.sum(np.multiply(w, sq, out=w), axis=-1)

    def first_reduce(v, sq):
        w = np.subtract(v, sq / (2.0 * t))
        w += log_hk
        np.exp(w, out=w)
        u = np.sum(w, axis=-1)
        return np.stack((u, rate(w, sq)))

    def later_reduce(v, sq):
        # the kernel has the shape of sq, smaller than w by the components
        w = np.multiply(v, np.exp(-sq / (2.0 * t)))
        u, ut = np.sum(w[0], axis=-1), np.sum(w[1], axis=-1)
        return np.stack((u, ut + rate(w[0], sq)))

    axes = field0.axes()
    u_ut = _axis_scan(field0.H, axes[0], -k, first_reduce)
    for d in range(1, k):
        u_ut = _axis_scan(u_ut, axes[d], d - k, later_reduce)
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
    # the walk's rows are the vectorized sampler's at its points, bit for bit
    traj, rows = _walk(field, config, x0)
    pts = traj.points
    grad_h = rows[:, 1:]
    # (price, point, [lambda, grad lambda]); reshape keeps an empty list 3-d
    prices = np.array([_sampler(pf, config.boundary)(pts)
                       for pf in price_fields]
                      ).reshape(len(price_fields), len(pts), 1 + field.ndim)
    chain = prices[..., 0].T
    c = np.array([float(config.c_of_H(h)) for h in traj.H_values[:-1]])
    drift = np.sum(prices[:, :-1, 1:] * grad_h[:-1], axis=-1).T
    # the same sequential Euler sum as the trajectory's steps
    ode = np.cumsum(np.vstack([chain[:1], config.dt * c[:, None] * drift]),
                    axis=0)
    return PriceTransport(trajectory=traj, ode_route=ode, chain_route=chain)


def calibrate_c(dlambda_dt: float, field: EntropyField,
                price_field: EntropyField, x: Sequence[float],
                boundary: str = "clamped") -> float:
    """Recover c(H) at x from one observed price drift.

    c = (d lambda/dt) / (grad lambda . grad H); an orthogonal or vanishing
    gradient pairing leaves c undetermined and raises.
    """
    check_real(dlambda_dt, "dlambda_dt")
    if boundary not in _BOUNDARIES:
        raise InputError(f"boundary must be one of {_BOUNDARIES}")
    xv = _point_in_box(field, x, "x").tolist()
    gradH = np.array(_sampler(field, boundary).point(xv)[1:])
    gradL = np.array(_sampler(price_field, boundary).point(xv)[1:])
    denom = float(gradL @ gradH)
    if abs(denom) < 1e-14:
        raise InputError("price insensitive to entropy gradient at x")
    return float(dlambda_dt) / denom
