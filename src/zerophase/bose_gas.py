"""Exactly solvable interacting boson gas with metastable branches.

Levels come from a dispersion law sampled on a momentum grid (or are given
directly).  The specific free energy per particle,

    f(m) = sum_n [ lambda_n m_n - (V/2) m_n^2
                   + theta m_n ln(m_n/g) - theta (g+m_n) ln(1+m_n/g) ],

is minimized over occupation fractions m_n > 0 with sum m_n = 1.  Stationary
points solve

    phi_n(m_n) := lambda_n - V m_n + theta ln(m_n/(g+m_n)) = mu,   sum m = 1.

phi_n has a single interior maximum at m* where alpha(m) = -V + theta g /
(m (g+m)) changes sign, so for each mu there is at most one root on each
monotone segment.  A branch seeded at level l keeps m_l on the decreasing
segment (condensate) and all other m_n on the increasing one; the gas
solution keeps every root on the increasing segment.  The derivative of the
unit-sum defect with respect to m_l equals the stability margin
1 + sum_{n != l} alpha_l/alpha_n, which is what makes fold detection and the
critical-temperature bisection below reliable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln

from .errors import BranchNotFound, BranchTerminated, InputError, SolverError

# Residual budget every accepted branch state must satisfy, for the
# stationarity equations, the unit sum, and the Bose-factor form alike.
RESIDUAL_TOL = 1e-10

_GAP_TOL = 1e-12


# ---------------------------------------------------------------------------
# level construction


@dataclass(frozen=True)
class DispersionSpec:
    """Momentum-space sampling plan for a dispersion law epsilon(p).

    The level grid has spacing dp = 2*pi*hbar*G/L (G-fold degenerate blocks
    of the elementary grid) and index window n in [-n_max, n_max].
    """

    epsilon: Callable[[float], float]
    L: float
    hbar: float = 1.0
    G: int = 1
    n_max: int = 2

    def __post_init__(self) -> None:
        if self.L <= 0 or self.hbar <= 0:
            raise InputError("L and hbar must be positive")
        if int(self.G) != self.G or self.G < 1:
            raise InputError("G must be a positive integer")
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise InputError("truncation window must contain at least 2 levels")

    @property
    def dp(self) -> float:
        return 2.0 * math.pi * self.hbar * self.G / self.L


def dispersion_lambdas(spec: DispersionSpec) -> np.ndarray:
    """Evaluate the dispersion on the truncated grid, lowest index first.

    Requires epsilon(0) < epsilon(p) for every nonzero grid momentum p.
    """
    ns = np.arange(-spec.n_max, spec.n_max + 1)
    lam = np.array([float(spec.epsilon(n * spec.dp)) for n in ns])
    if not np.all(np.isfinite(lam)):
        raise InputError("dispersion produced non-finite level values")
    e0 = lam[spec.n_max]
    if np.any(lam[ns != 0] <= e0):
        raise InputError("dispersion must have a strict minimum at p = 0")
    return lam


@dataclass(frozen=True)
class LevelSet:
    """Energy levels with specific degeneracy g and pair attraction (V, D)."""

    lambdas: tuple
    g: float
    V: float
    D: float

    def __post_init__(self) -> None:
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size < 2:
            raise InputError("at least two levels are required")
        if not np.all(np.isfinite(lam)):
            raise InputError("levels must be finite")
        object.__setattr__(self, "lambdas", tuple(float(x) for x in lam))
        if not (self.g > 0 and self.V > 0 and self.D > 0):
            raise InputError("g, V, D must be positive")
        gaps = np.abs(lam[:, None] - lam[None, :])
        min_gap = float(np.min(gaps[~np.eye(lam.size, dtype=bool)]))
        # width condition first: a duplicated level violates it for any D > 0
        if self.D >= min_gap:
            raise InputError("interaction width too large")
        if min_gap < _GAP_TOL:
            raise InputError("degenerate level spacing")

    @classmethod
    def from_values(cls, lambdas: Sequence[float], g: float, V: float,
                    D: float | None = None) -> "LevelSet":
        """Direct construction; D defaults to half the smallest level gap."""
        lam = np.asarray(lambdas, dtype=float)
        if D is None:
            if lam.size < 2:
                raise InputError("at least two levels are required")
            gaps = np.abs(lam[:, None] - lam[None, :])
            off = gaps[~np.eye(lam.size, dtype=bool)]
            D = 0.5 * float(np.min(off))
        return cls(tuple(float(x) for x in lam), float(g), float(V), float(D))

    @property
    def size(self) -> int:
        return len(self.lambdas)

    @property
    def ground(self) -> int:
        return int(np.argmin(self.lambdas))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.lambdas, dtype=float)


def build_levels(spec: DispersionSpec, g: float, V: float, D: float) -> LevelSet:
    """Sample the dispersion and validate the interaction-width condition."""
    return LevelSet(tuple(dispersion_lambdas(spec)), float(g), float(V), float(D))


# ---------------------------------------------------------------------------
# finite-N energy and multiplicity


def discrete_energy(levels: LevelSet, occupation: Sequence[int], N: int) -> float:
    """Energy of an occupation vector: sum lam*n - (V/2N) sum n(n-1)."""
    occ = np.asarray(occupation)
    if occ.shape != (levels.size,):
        raise InputError("occupation length must match the level count")
    if np.any(occ < 0) or not np.all(occ == np.floor(occ)):
        raise InputError("occupations must be nonnegative integers")
    if int(occ.sum()) != N:
        raise InputError("occupations must sum to N")
    occ = occ.astype(float)
    lam = levels.as_array()
    return float(lam @ occ - (levels.V / (2.0 * N)) * np.sum(occ * (occ - 1.0)))


def log_multiplicity(levels: LevelSet, occupation: Sequence[int], N: int,
                     G: int | None = None) -> float:
    """ln of the number of boson micro-states realizing the occupation.

    Each level is a block of G sublevels; G defaults to round(g*N), the
    finite-N reading of the specific degeneracy.
    """
    occ = np.asarray(occupation, dtype=float)
    if int(occ.sum()) != N:
        raise InputError("occupations must sum to N")
    if G is None:
        G = max(1, int(round(levels.g * N)))
    if G < 1:
        raise InputError("G must be a positive integer")
    return float(np.sum(gammaln(G + occ) - gammaln(G) - gammaln(occ + 1.0)))


# ---------------------------------------------------------------------------
# free energy and entropy of occupation fractions


def _check_fractions(m: np.ndarray, size: int) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (size,):
        raise InputError("fraction vector length must match the level count")
    if np.any(m <= 0):
        raise InputError("occupation fractions must be positive")
    if abs(m.sum() - 1.0) > 1e-8:
        raise InputError("occupation fractions must sum to 1")
    return m


def free_energy(levels: LevelSet, m: Sequence[float], theta: float) -> float:
    """Specific free energy of a fraction vector at temperature theta."""
    m = _check_fractions(np.asarray(m, dtype=float), levels.size)
    if theta < 0:
        raise InputError("theta must be nonnegative")
    lam = levels.as_array()
    g = levels.g
    energy = lam @ m - 0.5 * levels.V * np.sum(m * m)
    entropy = np.sum((g + m) * np.log1p(m / g) - m * np.log(m / g))
    return float(energy - theta * entropy)


def specific_entropy(levels: LevelSet, m: Sequence[float]) -> float:
    """Mixing entropy sum (g+m)ln(1+m/g) - m ln(m/g) of a fraction vector."""
    m = _check_fractions(np.asarray(m, dtype=float), levels.size)
    g = levels.g
    return float(np.sum((g + m) * np.log1p(m / g) - m * np.log(m / g)))


# ---------------------------------------------------------------------------
# branch states and the seeded solver


@dataclass(frozen=True)
class BranchState:
    """One converged point of a self-consistent branch."""

    l: int
    theta: float
    m: tuple
    mu: float
    alphas: tuple
    stable: bool
    margin: float
    f: float
    s: float

    def m_array(self) -> np.ndarray:
        return np.asarray(self.m, dtype=float)

    def alphas_array(self) -> np.ndarray:
        return np.asarray(self.alphas, dtype=float)


@dataclass(frozen=True)
class FixedPoint:
    """Solution of the stationarity system without branch bookkeeping."""

    theta: float
    m: tuple
    mu: float


def _mstar(levels: LevelSet, theta: float) -> float:
    # alpha(m) = -V + theta g / (m (g+m)) vanishes here; phi increases below,
    # decreases above.
    g, V = levels.g, levels.V
    return 0.5 * g * (math.sqrt(1.0 + 4.0 * theta / (V * g)) - 1.0)


def theta_upper_bound(levels: LevelSet) -> float:
    """Temperature above which no condensed (metastable) branch can exist.

    At theta >= V(g+1)/g the fold point m* exceeds 1, so every admissible
    fraction sits on the increasing segment of phi and alpha > 0 throughout.
    """
    return levels.V * (levels.g + 1.0) / levels.g


def _phi00(levels: LevelSet, theta: float, m: float) -> float:
    # level-independent part of phi: phi_n(m) = lambda_n + phi00(m)
    return -levels.V * m + theta * math.log(m / (levels.g + m))


def _alpha(levels: LevelSet, theta: float, m: float | np.ndarray):
    g = levels.g
    return -levels.V + theta * g / (m * (g + m))


def _low_root(levels: LevelSet, theta: float, target: float, mstar: float) -> float:
    """Solve phi00(m) = target on the increasing segment (0, mstar]."""
    g = levels.g
    top = _phi00(levels, theta, mstar)
    if target > top:
        raise SolverError("no root on the increasing segment")
    if target == top:
        return mstar
    # Boltzmann-tail guess; nearly exact for roots deep below m*, which keeps
    # the bracket tight enough for brentq even when the root underflows
    # toward the denormal range.
    guess = g * math.exp(min(target / theta, 700.0))
    if guess == 0.0:
        raise SolverError("occupation underflow; temperature too low to track")
    if guess < 0.01 * mstar:
        lo, hi = 0.25 * guess, min(8.0 * guess, mstar)
        while _phi00(levels, theta, hi) < target:
            hi = min(hi * 8.0, mstar)
            if hi == mstar:
                break
    else:
        lo, hi = min(guess * 0.5, 0.5 * mstar), mstar
    lo = max(lo, 5e-324)
    while _phi00(levels, theta, lo) > target:
        lo *= 0.25
        if lo < 1e-320:
            raise SolverError("low-root bracketing failed")
    m = brentq(lambda x: _phi00(levels, theta, x) - target, lo, hi,
               xtol=1e-300, rtol=8.9e-16, maxiter=200)
    # Newton polish; alpha is the exact derivative of phi00 here.
    for _ in range(3):
        r = _phi00(levels, theta, m) - target
        a = _alpha(levels, theta, m)
        if a <= 0:
            break
        step = r / a
        if m - step <= 0:
            break
        m -= step
    return float(m)


def _seed_profile(levels: LevelSet, theta: float, l: int, x: float,
                  mstar: float) -> tuple[np.ndarray, float]:
    """All low-segment roots given the seed fraction m_l = x; returns (m, mu)."""
    lam = levels.as_array()
    mu = lam[l] + _phi00(levels, theta, x)
    m = np.empty(levels.size)
    m[l] = x
    for n in range(levels.size):
        if n != l:
            m[n] = _low_root(levels, theta, mu - lam[n], mstar)
    return m, mu


def _unit_defect_and_margin(levels: LevelSet, theta: float, l: int, x: float,
                            mstar: float) -> tuple[float, float, np.ndarray, float]:
    m, mu = _seed_profile(levels, theta, l, x, mstar)
    defect = float(m.sum() - 1.0)
    al = _alpha(levels, theta, x)
    others = np.array([_alpha(levels, theta, m[n])
                       for n in range(levels.size) if n != l])
    with np.errstate(divide="ignore"):
        margin = float(1.0 + al * np.sum(1.0 / others))
    return defect, margin, m, mu


def _golden_min(fun, a: float, b: float, tol: float) -> float:
    # golden-section minimizer; fun assumed unimodal on [a, b]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while (b - a) > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fun(x2)
    return 0.5 * (a + b)


def _gas_solution(levels: LevelSet, theta: float, mstar: float) -> tuple[np.ndarray, float]:
    """All-low-root solution: solve sum_n m_n(mu) = 1 with every root below m*."""
    lam = levels.as_array()
    mu_top = float(lam.min()) + _phi00(levels, theta, mstar)

    def total(mu: float) -> float:
        return sum(_low_root(levels, theta, mu - lam[n], mstar)
                   for n in range(levels.size))

    if total(mu_top) < 1.0:
        raise SolverError("gas solution does not exist at this temperature")
    mu_lo = mu_top - max(theta, 1.0)
    while total(mu_lo) > 1.0:
        mu_lo -= max(theta, 1.0)
    mu = brentq(lambda u: total(u) - 1.0, mu_lo, mu_top,
                xtol=1e-300, rtol=8.9e-16)
    m = np.array([_low_root(levels, theta, mu - lam[n], mstar)
                  for n in range(levels.size)])
    return m, float(mu)


def _finalize_state(levels: LevelSet, theta: float, l: int, m: np.ndarray,
                    mu: float) -> BranchState:
    lam = levels.as_array()
    resid = np.max(np.abs(lam - levels.V * m
                          + theta * np.log(m / (levels.g + m)) - mu))
    resid = max(float(resid), abs(float(m.sum()) - 1.0))
    if resid > RESIDUAL_TOL:
        raise SolverError(f"branch residual {resid:.3e} exceeds tolerance")
    alphas = _alpha(levels, theta, m)
    others = np.delete(alphas, l)
    stable = bool(np.all(others > 0) and alphas[l] < 0
                  and (-np.sum(alphas[l] / others)) < 1.0)
    with np.errstate(divide="ignore"):
        margin = float(1.0 + np.sum(alphas[l] / others))
    f = free_energy(levels, m, theta)
    s = specific_entropy(levels, m)
    return BranchState(l=int(l), theta=float(theta),
                       m=tuple(float(v) for v in m), mu=float(mu),
                       alphas=tuple(float(a) for a in alphas),
                       stable=stable, margin=margin, f=float(f), s=float(s))


def solve_branch(levels: LevelSet, theta: float, l: int,
                 hint: float | None = None) -> BranchState:
    """Solve the stationarity system on the branch seeded at level l.

    The seed fraction m_l is tracked on the decreasing segment of phi; the
    root is the largest zero of the unit-sum defect there, which is exactly
    the local-minimum solution (the defect's slope at it is the stability
    margin).  For the ground seed the all-low gas solution is also
    considered and the lower free energy wins.

    Raises BranchNotFound when the seed is inadmissible (some
    lambda_n - lambda_l + V <= 0) and BranchTerminated when the branch no
    longer has a solution at this temperature.
    """
    if theta <= 0:
        raise InputError("theta must be positive")
    if not (0 <= l < levels.size):
        raise InputError("seed level out of range")
    lam = levels.as_array()
    ground = levels.ground
    nu = lam - lam[l] + levels.V  # nu[l] = V > 0
    if np.any(nu <= 0):
        n = int(np.argmax(nu <= 0))
        raise BranchNotFound(f"branch seeded at level {l} does not exist: "
                             f"lambda_{n} - lambda_{l} + V = {nu[n]:.12g} <= 0")

    mstar = _mstar(levels, theta)
    if mstar >= 1.0:
        if l != ground:
            raise BranchTerminated("branch terminated", last_theta=None)
        m, mu = _gas_solution(levels, theta, mstar)
        return _finalize_state(levels, theta, l, m, mu)

    # admissible domain of the seed fraction on [mstar, 1]
    mu_bound = float(np.delete(lam, l).min()) + _phi00(levels, theta, mstar)
    phi_l_top = lam[l] + _phi00(levels, theta, mstar)
    if phi_l_top <= mu_bound:
        x_lo = mstar
    else:
        phi_l_one = lam[l] + _phi00(levels, theta, 1.0)
        if phi_l_one > mu_bound:
            raise BranchTerminated("branch terminated", last_theta=None)
        x_lo = brentq(lambda x: lam[l] + _phi00(levels, theta, x) - mu_bound,
                      mstar, 1.0, xtol=1e-15, rtol=8.9e-16)
        # keep the binding low root strictly solvable
        x_lo = min(1.0, x_lo * (1.0 + 1e-13) + 1e-300)

    def defect(x: float) -> float:
        return _unit_defect_and_margin(levels, theta, l, x, mstar)[0]

    d_hi = defect(1.0)
    if d_hi < 0:
        raise SolverError("unit-sum defect negative at full condensation")
    d_lo = defect(x_lo)
    if d_lo <= 0:
        left = x_lo
    else:
        x_start = 1.0
        if hint is not None and x_lo < hint < 1.0:
            # warm start: the seed fraction shrinks along the branch, so the
            # previous solution brackets the new root from above
            if defect(min(1.0, hint * 1.0 + 1e-9)) >= 0:
                x_start = min(1.0, hint + 1e-9)
        x_min = _golden_min(defect, x_lo, x_start, tol=1e-12)
        if defect(x_min) > 0:
            if l == ground:
                m, mu = _gas_solution(levels, theta, mstar)
                return _finalize_state(levels, theta, l, m, mu)
            raise BranchTerminated("branch terminated", last_theta=None)
        left = x_min

    x_hat = brentq(defect, left, 1.0, xtol=1e-15, rtol=8.9e-16)
    d, margin, m, mu = _unit_defect_and_margin(levels, theta, l, x_hat, mstar)
    # Newton polish on the defect; its exact slope is the margin
    for _ in range(4):
        if abs(d) < 1e-14 or margin <= 0:
            break
        x_new = x_hat - d / margin
        if not (x_lo <= x_new <= 1.0):
            break
        x_hat = x_new
        d, margin, m, mu = _unit_defect_and_margin(levels, theta, l, x_hat, mstar)
    m[l] += 1.0 - m.sum()  # absorb the last sub-1e-14 defect into the seed

    if l == ground:
        # a gas minimum may coexist near the crossover; keep the lower one
        try:
            m_gas, mu_gas = _gas_solution(levels, theta, mstar)
        except SolverError:
            m_gas = None
        if m_gas is not None:
            if free_energy(levels, m_gas, theta) < free_energy(levels, m, theta):
                return _finalize_state(levels, theta, l, m_gas, mu_gas)
    return _finalize_state(levels, theta, l, m, mu)


def solve_self_consistent(levels: LevelSet, theta: float,
                          m0: Sequence[float]) -> FixedPoint:
    """Damped Newton iteration on (phi_n(m_n) = mu, sum m = 1) from a guess.

    Intended for the convex regime (high temperature), where the iteration
    converges from any simplex start; at low temperature the outcome depends
    on the basin of the initial guess and the iteration may fail.
    """
    if theta <= 0:
        raise InputError("theta must be positive")
    lam = levels.as_array()
    m = np.asarray(m0, dtype=float)
    if m.shape != (levels.size,):
        raise InputError("initial guess length must match the level count")
    if np.any(m <= 0):
        raise InputError("initial guess must be positive")
    mstar = _mstar(levels, theta)
    cap = 0.95 * mstar
    m = np.clip(m, 1e-12, cap)

    def phi(mv: np.ndarray) -> np.ndarray:
        return lam - levels.V * mv + theta * np.log(mv / (levels.g + mv))

    mu = float(np.mean(phi(m)))

    def resid_norm(mv: np.ndarray, u: float) -> float:
        return max(float(np.max(np.abs(phi(mv) - u))), abs(float(mv.sum()) - 1.0))

    best = resid_norm(m, mu)
    for _ in range(200):
        if best < 1e-12:
            break
        r = phi(m) - mu
        c = m.sum() - 1.0
        a = _alpha(levels, theta, m)
        if np.any(a <= 0):
            raise SolverError("left the convex region; no convergence")
        inv = 1.0 / a
        dmu = (np.sum(r * inv) - c) / np.sum(inv)
        dm = (dmu - r) * inv
        step = 1.0
        for _ in range(40):
            m_try = np.clip(m + step * dm, 1e-14, cap)
            mu_try = mu + step * dmu
            if resid_norm(m_try, mu_try) < best:
                m, mu, best = m_try, mu_try, resid_norm(m_try, mu_try)
                break
            step *= 0.5
        else:
            raise SolverError("fixed-point iteration stalled")
    if best >= 1e-12:
        raise SolverError("fixed-point iteration did not converge")
    return FixedPoint(theta=float(theta), m=tuple(float(v) for v in m),
                      mu=float(mu))


# ---------------------------------------------------------------------------
# diagnostics


def hartree_residual(branch: BranchState, levels: LevelSet) -> float:
    """Max defect of the Bose-factor form of the stationarity system.

    Checks m_n against g/(exp((omega_n - mu)/theta) - 1) with
    omega_n = lambda_n - V m_n, plus the unit sum.  Algebraically identical
    to the logarithmic form, so converged branches sit below 1e-10.
    """
    m = branch.m_array()
    lam = levels.as_array()
    omega = lam - levels.V * m
    with np.errstate(over="ignore"):
        denom = np.expm1((omega - branch.mu) / branch.theta)
    pred = np.where(np.isfinite(denom), levels.g / denom, 0.0)
    return float(max(np.max(np.abs(m - pred)), abs(m.sum() - 1.0)))


@dataclass(frozen=True)
class StabilityReport:
    alphas: tuple
    stable: bool
    margin: float


def stability_check(branch: BranchState, levels: LevelSet) -> StabilityReport:
    """Second-variation test of the branch: signs of alpha and the margin.

    stable requires alpha_n > 0 off the seed, alpha_l < 0 at it, and
    -sum alpha_l/alpha_n < 1; margin = 1 + sum alpha_l/alpha_n hits zero at
    the critical temperature.
    """
    m = branch.m_array()
    alphas = _alpha(levels, branch.theta, m)
    others = np.delete(alphas, branch.l)
    stable = bool(np.all(others > 0) and alphas[branch.l] < 0
                  and -np.sum(alphas[branch.l] / others) < 1.0)
    with np.errstate(divide="ignore"):
        margin = float(1.0 + np.sum(alphas[branch.l] / others))
    return StabilityReport(alphas=tuple(float(a) for a in alphas),
                           stable=stable, margin=margin)


# ---------------------------------------------------------------------------
# continuation in temperature


@dataclass(frozen=True)
class ContinuationResult:
    states: tuple
    theta_c: float | None


def _branch_alive(levels: LevelSet, theta: float, l: int,
                  hint: float | None) -> BranchState | None:
    # an inadmissible seed does not depend on theta, so its cause propagates
    try:
        st = solve_branch(levels, theta, l, hint=hint)
    except BranchNotFound:
        raise
    except SolverError:
        return None
    if st.margin <= 0 or not st.stable:
        return None
    return st


def continue_branch(levels: LevelSet, l: int,
                    theta_grid: Sequence[float]) -> ContinuationResult:
    """Track the branch over an increasing temperature grid.

    Earlier solutions warm-start later ones.  When the branch dies inside
    the grid, the death point is bisected to 1e-8 relative tolerance and
    reported as theta_c; accepted states keep the monotonicity the branch
    is known to have (seed fraction falls, all others rise).
    """
    thetas = np.asarray(theta_grid, dtype=float)
    if thetas.ndim != 1 or thetas.size < 1:
        raise InputError("theta grid must be a nonempty 1-d sequence")
    if np.any(thetas <= 0) or np.any(np.diff(thetas) <= 0):
        raise InputError("theta grid must be positive and increasing")

    states: list[BranchState] = []
    hint = None
    theta_c = None
    last_good = None
    first_bad = None
    for theta in thetas:
        st = _branch_alive(levels, float(theta), l, hint)
        if st is None:
            first_bad = float(theta)
            break
        if states:
            # ties allowed: below float resolution the occupations underflow
            prev = states[-1].m_array()
            cur = st.m_array()
            if cur[l] > prev[l] or np.any(np.delete(cur, l) < np.delete(prev, l)):
                raise SolverError("branch monotonicity violated during continuation")
        states.append(st)
        hint = st.m[l]
        last_good = float(theta)

    if first_bad is None:
        return ContinuationResult(states=tuple(states), theta_c=None)
    if last_good is None:
        raise BranchTerminated("branch has no solution on the given grid",
                               last_theta=None)

    lo, hi = last_good, first_bad
    hint = states[-1].m[l]
    while (hi - lo) > 1e-8 * hi:
        mid = 0.5 * (lo + hi)
        st = _branch_alive(levels, mid, l, hint)
        if st is None:
            hi = mid
        else:
            lo = mid
            hint = st.m[l]
            states.append(st)
    theta_c = lo
    # keep states sorted and unique in theta after the bisection appends
    states.sort(key=lambda s: s.theta)
    return ContinuationResult(states=tuple(states), theta_c=float(theta_c))


# ---------------------------------------------------------------------------
# entropy, heat capacity, and the square-root law at the fold


def _dm_dtheta(levels: LevelSet, state: BranchState) -> tuple[np.ndarray, float]:
    # implicit differentiation of phi_n(m_n) = mu under sum m = 1:
    # alpha_n m_n' + ln(m_n/(g+m_n)) = mu',  sum m' = 0
    m = state.m_array()
    a = state.alphas_array()
    L = np.log(m / (levels.g + m))
    inv = 1.0 / a
    mu_p = np.sum(L * inv) / np.sum(inv)
    return (mu_p - L) * inv, float(mu_p)


@dataclass(frozen=True)
class EntropyTable:
    theta: tuple
    s: tuple
    ds_dtheta: tuple
    ds_dtheta_fd: tuple

    def heat_capacity(self) -> np.ndarray:
        return np.asarray(self.theta) * np.asarray(self.ds_dtheta)


def entropy_and_capacity(levels: LevelSet,
                         states: Sequence[BranchState]) -> EntropyTable:
    """Entropy along a branch with analytic and finite-difference slopes.

    The analytic slope is sum_{n != l} m_n' ln((g+m_n)/m_n * m_l/(g+m_l)),
    with m' from implicit differentiation; the centered difference is NaN at
    the endpoints.  Positive everywhere on a metastable branch.
    """
    if len(states) < 3:
        raise InputError("at least three branch points are required")
    thetas = np.array([st.theta for st in states])
    if np.any(np.diff(thetas) <= 0):
        raise InputError("branch points must be sorted by increasing theta")
    s = np.array([st.s for st in states])
    analytic = np.empty_like(s)
    for j, st in enumerate(states):
        dm, _ = _dm_dtheta(levels, st)
        m = st.m_array()
        L = np.log(m / (levels.g + m))
        idx = np.arange(levels.size) != st.l
        analytic[j] = float(np.sum(dm[idx] * (L[st.l] - L[idx])))
    fd = np.full_like(s, np.nan)
    fd[1:-1] = (s[2:] - s[:-2]) / (thetas[2:] - thetas[:-2])
    return EntropyTable(theta=tuple(thetas), s=tuple(s),
                        ds_dtheta=tuple(analytic), ds_dtheta_fd=tuple(fd))


@dataclass(frozen=True)
class SingularFit:
    exponent: float
    C: float
    exponents: tuple
    C_per_level: tuple


def singular_exponent_fit(levels: LevelSet, states: Sequence[BranchState],
                          theta_c: float) -> SingularFit:
    """Fit m_n(theta) - m_n(theta_c) ~ (C/alpha_n) sqrt(theta_c - theta).

    The endpoint values m_n(theta_c) are not solvable directly (the branch
    folds there), so they are extrapolated from consecutive differences of
    the sequence, which cancel the unknown endpoint exactly; the reported
    exponent then comes from the literal log-log fit of |m_n - m_n(theta_c)|
    against theta_c - theta.  C is recovered per level through alpha_n at
    the extrapolated endpoint and must come out negative for every level.
    """
    if len(states) < 8:
        raise InputError("at least eight branch points are required")
    thetas = np.array([st.theta for st in states])
    order = np.argsort(thetas)
    thetas = thetas[order]
    deltas = theta_c - thetas
    if np.any(deltas <= 0):
        raise InputError("all branch points must lie below theta_c")
    if deltas.max() / deltas.min() < 99.0:
        raise InputError("branch points must span two decades below theta_c")
    M = np.stack([states[int(i)].m_array() for i in order])  # rows by theta

    exponents = []
    Cs = []
    for n in range(levels.size):
        v = M[:, n]
        dv = np.abs(np.diff(v))
        if np.any(dv == 0):
            raise SolverError("branch values are not strictly monotone near the fold")
        # difference fit is endpoint-free: log|v_{j+1}-v_j| vs log(delta_j)
        q = float(np.polyfit(np.log(deltas[:-1]), np.log(dv), 1)[0])
        span = deltas[1:] ** q - deltas[:-1] ** q
        k_n = float(np.median(np.diff(v) / span))
        m_c = float(np.mean(v - k_n * deltas ** q))
        resid = v - m_c
        if np.any(resid == 0) or np.any(np.sign(resid) != np.sign(resid[0])):
            raise SolverError("endpoint extrapolation failed near the fold")
        slope, icpt = np.polyfit(np.log(deltas), np.log(np.abs(resid)), 1)
        alpha_c = float(_alpha(levels, theta_c, m_c))
        exponents.append(float(slope))
        Cs.append(math.copysign(math.exp(icpt), resid[0]) * alpha_c)
    if len({c > 0 for c in Cs}) != 1:
        raise SolverError("level amplitudes disagree in sign")
    return SingularFit(exponent=float(np.mean(exponents)),
                       C=float(np.mean(Cs)),
                       exponents=tuple(exponents),
                       C_per_level=tuple(Cs))


def branch_points_near(levels: LevelSet, l: int, theta_c: float,
                       deltas: Sequence[float]) -> tuple:
    """Solve the branch at theta_c - delta for each requested offset."""
    out = []
    hint = None
    for d in sorted(np.asarray(deltas, dtype=float), reverse=True):
        if d <= 0:
            raise InputError("offsets below theta_c must be positive")
        st = solve_branch(levels, theta_c - d, l, hint=hint)
        hint = st.m[l]
        out.append(st)
    return tuple(out)


# ---------------------------------------------------------------------------
# transition certificate and the two-level scan oracle


@dataclass(frozen=True)
class TransitionCertificate:
    theta_c: float
    f_meta: float
    f_ground: float
    jump: float


def zeroth_order_certificate(levels: LevelSet, l: int,
                             theta_grid: Sequence[float] | None = None
                             ) -> TransitionCertificate:
    """Free-energy jump between the dying branch and the ground state.

    Continues the seed-l branch to its critical temperature, evaluates its
    free energy there (at the last accepted point, within the bisection
    tolerance of theta_c), and compares with the ground solution at the
    same temperature.  A positive jump is the zeroth-order signature: the
    free energy itself, not just its derivatives, is discontinuous when the
    branch dies.
    """
    if l == levels.ground:
        raise InputError("certificate requires a non-ground seed")
    if theta_grid is None:
        hi = theta_upper_bound(levels)
        theta_grid = np.geomspace(1e-3 * hi, hi, 48)
    cont = continue_branch(levels, l, theta_grid)
    if cont.theta_c is None:
        raise SolverError("branch survived the entire temperature grid")
    meta = cont.states[-1]
    ground = solve_branch(levels, cont.theta_c, levels.ground)
    jump = meta.f - ground.f
    return TransitionCertificate(theta_c=float(cont.theta_c),
                                 f_meta=float(meta.f),
                                 f_ground=float(ground.f),
                                 jump=float(jump))


def scalar_scan_minima(levels: LevelSet, theta: float,
                       step: float = 1e-4) -> tuple:
    """Brute-force local minima of the two-level free energy over m_1.

    Scans f((1-x, x)) on a uniform x grid and returns the interior local
    minimizer locations.  Oracle for the self-consistent solver; two-level
    instances only.
    """
    if levels.size != 2:
        raise InputError("scan oracle is defined for two-level instances")
    if not (0 < step < 0.5):
        raise InputError("step must lie in (0, 0.5)")
    x = np.arange(step, 1.0, step)
    m0 = 1.0 - x
    lam = levels.as_array()
    g = levels.g
    f = (lam[0] * m0 + lam[1] * x
         - 0.5 * levels.V * (m0 * m0 + x * x)
         + theta * (m0 * np.log(m0 / g) - (g + m0) * np.log1p(m0 / g))
         + theta * (x * np.log(x / g) - (g + x) * np.log1p(x / g)))
    # one-sided at the ends: a minimizer hugging the boundary (deep in a
    # condensed phase) is still reported, at grid resolution
    keep = np.zeros(x.size, dtype=bool)
    keep[1:-1] = (f[1:-1] < f[:-2]) & (f[1:-1] < f[2:])
    keep[0] = f[0] < f[1]
    keep[-1] = f[-1] < f[-2]
    return tuple(float(v) for v in x[keep])
