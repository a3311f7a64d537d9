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

from ._numeric import (as_counts, brentq, check_count, check_grid, check_real,
                       log_factorial)
from .errors import BranchNotFound, BranchTerminated, InputError, SolverError

# Residual budget every accepted branch state must satisfy, for the
# stationarity equations, the unit sum, and the Bose-factor form alike.
RESIDUAL_TOL = 1e-10

_GAP_TOL = 1e-12

# Newton steps on the fixed-theta bordered system before it gives up
_NEWTON_STEPS = 12


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
        check_real(self.L, "L", "positive")
        check_real(self.hbar, "hbar", "positive")
        for name in ("G", "n_max"):  # stored as ints: n_max indexes the window
            object.__setattr__(self, name, check_count(getattr(self, name), name, 1))

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


def _min_gap(lam: np.ndarray) -> float:
    # smallest distance between two distinct entries of a level vector
    gaps = np.abs(lam[:, None] - lam[None, :])
    return float(np.min(gaps[~np.eye(lam.size, dtype=bool)]))


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
        for name in ("g", "V", "D"):
            check_real(getattr(self, name), name, "positive")
        min_gap = _min_gap(lam)
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
            D = 0.5 * _min_gap(lam)
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


def _occupation(levels: LevelSet, occupation: Sequence[int],
                N: int) -> tuple[np.ndarray, int]:
    """Gate an occupation vector of N particles over the levels."""
    N = check_count(N, "N", 1)
    occ = as_counts(occupation)
    if occ.shape != (levels.size,):
        raise InputError("occupation length must match the level count")
    if int(occ.sum()) != N:
        raise InputError("occupations must sum to N")
    return occ, N


def discrete_energy(levels: LevelSet, occupation: Sequence[int], N: int) -> float:
    """Energy of an occupation vector: sum lam*n - (V/2N) sum n(n-1)."""
    occ, N = _occupation(levels, occupation, N)
    occ = occ.astype(float)
    lam = levels.as_array()
    return float(lam @ occ - (levels.V / (2.0 * N)) * np.sum(occ * (occ - 1.0)))


def log_multiplicity(levels: LevelSet, occupation: Sequence[int], N: int,
                     G: int | None = None) -> float:
    """ln of the number of boson micro-states realizing the occupation.

    Each level is a block of G sublevels; G defaults to round(g*N), the
    finite-N reading of the specific degeneracy.
    """
    occ, N = _occupation(levels, occupation, N)
    if G is None:
        G = max(1, int(round(levels.g * N)))
    G = check_count(G, "G", 1)
    return float(np.sum(log_factorial(G + occ - 1) - log_factorial(G - 1)
                        - log_factorial(occ)))


# ---------------------------------------------------------------------------
# free energy and entropy of occupation fractions


def _check_fractions(m: np.ndarray, size: int) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (size,):
        raise InputError("fraction vector length must match the level count")
    if not np.all(m > 0):
        raise InputError("occupation fractions must be positive")
    if abs(m.sum() - 1.0) > 1e-8:
        raise InputError("occupation fractions must sum to 1")
    return m


def free_energy(levels: LevelSet, m: Sequence[float], theta: float) -> float:
    """Specific free energy of a fraction vector at temperature theta."""
    m = _check_fractions(np.asarray(m, dtype=float), levels.size)
    check_real(theta, "theta", "nonnegative")
    return _f_and_s(levels, m, theta)[0]


def specific_entropy(levels: LevelSet, m: Sequence[float]) -> float:
    """Mixing entropy sum (g+m)ln(1+m/g) - m ln(m/g) of a fraction vector."""
    m = _check_fractions(np.asarray(m, dtype=float), levels.size)
    return _f_and_s(levels, m, 0.0)[1]


def _f_and_s(levels: LevelSet, m: np.ndarray, theta: float) -> tuple[float, float]:
    # (free energy, entropy) of a checked fraction vector
    g = levels.g
    s = float(np.sum((g + m) * np.log1p(m / g) - m * np.log(m / g)))
    energy = levels.as_array() @ m - 0.5 * levels.V * np.sum(m * m)
    return float(energy - theta * s), s


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
    mstar = 0.5 * g * (math.sqrt(1.0 + 4.0 * theta / (V * g)) - 1.0)
    if not mstar > 0:
        raise SolverError(f"fold fraction m* cancels to 0: 4 theta/(V g) = "
                          f"{4.0 * theta / (V * g):.3e} is below float resolution")
    return mstar


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
    # a denormal m overflows the quotient to +inf, its limit
    with np.errstate(over="ignore"):
        return -levels.V + theta * g / (m * (g + m))


def _low_roots(levels: LevelSet, theta: float, targets: Sequence[float],
               mstar: float) -> list[float]:
    """Solve phi00(m) = target on the increasing segment (0, mstar], per target."""
    # _phi00 and _alpha inlined with the same float operations, brentq's f
    # too: this is the innermost loop of every branch solve
    g, neg_V, log = levels.g, -levels.V, math.log

    def phi(m: float) -> float:
        return neg_V * m + theta * log(m / (g + m))

    top = phi(mstar)
    roots = []
    for target in targets:
        if target > top:
            raise SolverError("no root on the increasing segment")
        if target == top:
            roots.append(mstar)
            continue
        # Boltzmann-tail guess; nearly exact for roots deep below m*, which
        # keeps the bracket tight enough for Brent even when the root
        # underflows toward the denormal range.
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
        # lo/(g+lo) can round to 0, where the log is undefined
        while lo / (g + lo) == 0.0 or phi(lo) > target:
            lo *= 0.25
            if lo < 1e-320:
                raise SolverError("low-root bracketing failed")
        m = brentq(lambda m: neg_V * m + theta * log(m / (g + m)) - target,
                   lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
        # Newton polish; alpha is the exact derivative of phi00 here.  A
        # step that leaves m unchanged would be repeated, so it ends the loop.
        for _ in range(3):
            r = phi(m) - target
            den = m * (g + m)
            if den == 0.0:
                break  # alpha is +inf: the step would be 0
            a = neg_V + theta * g / den
            if a <= 0:
                break
            m_next = m - r / a
            if m_next <= 0 or m_next == m:
                break
            m = m_next
        roots.append(m)
    return roots


def _seed_profile(levels: LevelSet, theta: float, l: int, x: float,
                  mstar: float) -> tuple[np.ndarray, float]:
    """All low-segment roots given the seed fraction m_l = x; returns (m, mu)."""
    lam = levels.lambdas
    mu = lam[l] + _phi00(levels, theta, x)
    m = _low_roots(levels, theta, [mu - lam_n for lam_n in lam[:l] + lam[l + 1:]],
                   mstar)
    m.insert(l, x)
    return np.array(m), mu


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


def _phi(levels: LevelSet, theta: float, m: np.ndarray) -> np.ndarray:
    return levels.as_array() - levels.V * m + theta * np.log(m / (levels.g + m))


def _residual(levels: LevelSet, theta: float, m: np.ndarray, mu: float) -> float:
    return max(float(np.max(np.abs(_phi(levels, theta, m) - mu))),
               abs(float(m.sum()) - 1.0))


def _bordered_solve(inv: np.ndarray, r: np.ndarray,
                    c: float) -> tuple[np.ndarray, float]:
    # (dm, dmu) with alpha_n dm_n + r_n = dmu, sum dm = -c, inv = 1/alpha: O(K)
    dmu = (np.sum(r * inv) - c) / np.sum(inv)
    return (dmu - r) * inv, dmu


def _bordered_newton(levels: LevelSet, theta: float, m: np.ndarray,
                     mu: float) -> tuple[np.ndarray, float] | None:
    """Newton on (phi_n(m_n) = mu, sum m = 1) from (m, mu); (m, mu) or None.

    The Jacobian is diag(alpha) plus the unit-sum border: O(K) a step.
    Undamped steps move ln m (m_n <- m_n exp(dm_n/m_n)), in which phi is
    nearly linear for the Boltzmann-tail occupations that a step in m
    would overshoot below zero.  The unit-sum row is linear in m, so from
    a start far below the state the tails can grow by many e-folds: a
    fraction past 1 + 1e-9 (a full condensate's rounding) is cut back to
    it.  One step past the residual 1e-12 polishes to rounding; the last
    step's iterate is checked too.  None when an m leaves (0, inf) or
    _NEWTON_STEPS steps do not converge; the caller checks the root.
    """
    converged = False
    with np.errstate(all="ignore"):
        for steps in range(_NEWTON_STEPS + 1):
            if not np.all((m > 0) & (m < np.inf)):
                return None
            r, c = _phi(levels, theta, m) - mu, float(m.sum()) - 1.0
            small = max(float(np.max(np.abs(r))), abs(c)) <= 1e-12
            if small and converged:
                return m, float(mu)
            converged = small
            if steps < _NEWTON_STEPS:
                dm, dmu = _bordered_solve(1.0 / _alpha(levels, theta, m), r, c)
                m, mu = np.minimum(m * np.exp(dm / m), 1.0 + 1e-9), mu + dmu
    return None


def _gas_state(levels: LevelSet, theta: float,
               m: np.ndarray) -> tuple[np.ndarray, float]:
    # the gas state (every alpha_n > 0, so unique) by the Newton from m;
    # its first step does not depend on the starting mu
    with np.errstate(all="ignore"):
        state = _bordered_newton(levels, theta, m,
                                 float(np.mean(_phi(levels, theta, m))))
    if state is None or not np.all(_alpha(levels, theta, state[0]) > 0):
        raise SolverError("fixed-point iteration did not converge to a gas state")
    return state


def _gas_solution(levels: LevelSet, theta: float) -> tuple[np.ndarray, float]:
    """All-low-root solution: the bordered Newton from a Boltzmann start.

    The start is the Boltzmann fraction of the mean-field levels
    lambda_n - V w_n, w that of the bare levels: from w itself the steps
    leave the gas region more often.  exp(-700) keeps a far level
    positive; one ln-m step fixes it.
    """
    # every m_n < m* and sum m = 1 need K m* > 1, i.e. alpha(1/K) > 0
    if _alpha(levels, theta, 1.0 / levels.size) <= 0:
        raise SolverError("gas solution does not exist at this temperature")
    lam = levels.as_array()
    with np.errstate(all="ignore"):
        w = np.exp(np.maximum((lam.min() - lam) / theta, -700.0))
        e = lam - levels.V * (w / w.sum())
        w = np.exp(np.maximum((e.min() - e) / theta, -700.0))
    return _gas_state(levels, theta, w / w.sum())


@dataclass(frozen=True)
class StabilityReport:
    alphas: tuple
    stable: bool
    margin: float


def _stability(levels: LevelSet, theta: float, l: int,
               m: np.ndarray) -> StabilityReport:
    alphas = _alpha(levels, theta, m)
    margin = _margin(alphas, l)  # 1 + s > 0 exactly when -s < 1
    stable = bool(np.all(np.delete(alphas, l) > 0) and alphas[l] < 0 and margin > 0)
    return StabilityReport(alphas=tuple(float(a) for a in alphas),
                           stable=stable, margin=margin)


def _margin(alphas: np.ndarray, l: int) -> float:
    # 1 + sum_{n != l} alpha_l/alpha_n: the slope of the unit-sum defect
    with np.errstate(divide="ignore"):
        return float(1.0 + np.sum(alphas[l] / np.delete(alphas, l)))


def _finalize_state(levels: LevelSet, theta: float, l: int, m: np.ndarray,
                    mu: float) -> BranchState:
    # a NaN residual (a negative m) fails too
    resid = _residual(levels, theta, m, mu)
    if not resid <= RESIDUAL_TOL:
        raise SolverError(f"branch residual {resid:.3e} exceeds tolerance")
    st = _stability(levels, theta, l, m)
    f, s = _f_and_s(levels, m, theta)
    return BranchState(l=int(l), theta=float(theta),
                       m=tuple(float(v) for v in m), mu=float(mu),
                       alphas=st.alphas, stable=st.stable, margin=st.margin,
                       f=f, s=s)


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
    # a numpy scalar would carry numpy's overflow warnings into the root
    # polish, where Python floats give inf and the typed error
    theta = float(check_real(theta, "theta", "positive"))
    l = check_count(l, "seed level l")
    if l >= levels.size:
        raise InputError("seed level out of range")
    lam = levels.as_array()
    ground = levels.ground
    nu = lam - lam[l] + levels.V  # nu[l] = V > 0
    if np.any(nu <= 0):
        n = int(np.argmax(nu <= 0))
        raise BranchNotFound(f"branch seeded at level {l} does not exist: "
                             f"lambda_{n} - lambda_{l} + V = {nu[n]:.12g} <= 0")

    mstar = _mstar(levels, theta)
    cand = (_condensate_solution(levels, theta, l, mstar, hint)
            if mstar < 1.0 else None)
    if l == ground:
        # a gas minimum may coexist near the crossover; keep the lower one
        try:
            gas = _gas_solution(levels, theta)
        except SolverError:
            if cand is None:
                raise
        else:
            if cand is None or (free_energy(levels, gas[0], theta)
                                < free_energy(levels, cand[0], theta)):
                cand = gas
    if cand is None:
        raise BranchTerminated("branch terminated")
    return _finalize_state(levels, theta, l, *cand)


def _condensate_solution(levels: LevelSet, theta: float, l: int, mstar: float,
                         hint: float | None) -> tuple[np.ndarray, float] | None:
    """Seed-l condensate (m, mu) for mstar < 1; None when the branch is dead."""
    lam = levels.as_array()
    # admissible domain of the seed fraction on [mstar, 1]
    mu_bound = float(np.delete(lam, l).min()) + _phi00(levels, theta, mstar)
    phi_l_top = lam[l] + _phi00(levels, theta, mstar)
    if phi_l_top <= mu_bound:
        x_lo = mstar
    else:
        phi_l_one = lam[l] + _phi00(levels, theta, 1.0)
        if phi_l_one > mu_bound:
            return None
        x_lo = brentq(lambda x: lam[l] + _phi00(levels, theta, x) - mu_bound,
                      mstar, 1.0, xtol=1e-15, rtol=8.9e-16)
        # keep the binding low root strictly solvable
        x_lo = min(1.0, x_lo * (1.0 + 1e-13) + 1e-300)

    # brentq re-evaluates its bracket ends, and it returns a point it has
    # evaluated: each seed fraction is profiled once
    profiles: dict[float, tuple[np.ndarray, float]] = {}

    def profile(x: float) -> tuple[np.ndarray, float]:
        if x not in profiles:
            profiles[x] = _seed_profile(levels, theta, l, x, mstar)
        return profiles[x]

    def defect(x: float) -> float:
        return float(profile(x)[0].sum() - 1.0)

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
            x_warm = min(1.0, hint + 1e-9)
            if defect(x_warm) >= 0:
                x_start = x_warm
        x_min = _golden_min(defect, x_lo, x_start, tol=1e-12)
        if defect(x_min) > 0:
            return None
        left = x_min

    m, mu = profile(brentq(defect, left, 1.0, xtol=1e-15, rtol=8.9e-16))
    m[l] += 1.0 - m.sum()  # absorb the last sub-1e-14 defect into the seed

    return m, mu


def solve_self_consistent(levels: LevelSet, theta: float,
                          m0: Sequence[float]) -> FixedPoint:
    """The gas state (every alpha_n > 0) by Newton steps in ln m from a guess.

    Intended for the convex regime (theta above theta_upper_bound), where
    the gas state is the only stationary point; the undamped iteration
    reaches it from sparse and near-vertex starts, though a start far from
    it can exhaust the step budget.  At low temperature the outcome
    depends on the basin of the guess.  SolverError on failure.  The same
    iteration gives solve_branch's gas candidate and the corrector.
    """
    check_real(theta, "theta", "positive")
    m = np.asarray(m0, dtype=float)
    if m.shape != (levels.size,):
        raise InputError("initial guess length must match the level count")
    if not np.all(m > 0):
        raise InputError("initial guess must be positive")
    m = np.clip(m, 1e-12, 0.95 * _mstar(levels, theta))
    m, mu = _gas_state(levels, theta, m)
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


def stability_check(branch: BranchState, levels: LevelSet) -> StabilityReport:
    """Second-variation test of the branch: signs of alpha and the margin.

    stable requires alpha_n > 0 off the seed, alpha_l < 0 at it, and
    -sum alpha_l/alpha_n < 1; margin = 1 + sum alpha_l/alpha_n hits zero at
    the critical temperature.
    """
    return _stability(levels, branch.theta, branch.l, branch.m_array())


# ---------------------------------------------------------------------------
# continuation in temperature


@dataclass(frozen=True)
class ContinuationResult:
    states: tuple
    theta_c: float | None


def _fold_theta(levels: LevelSet, st: BranchState) -> float | None:
    """Fold temperature of st's branch by Newton on the extended system.

    Unknowns (m, mu, theta), equations phi_n(m_n) = mu, sum m = 1 and
    margin = 0, the last of which is regular at the fold where the
    fixed-theta system is singular (Keller 1977).  A step is the fixed-theta
    bordered step plus dtheta times the _tangent, the margin row fixing
    dtheta: O(K).  None where dtheta is undefined; else None unless the
    residual reaches 1e-12 at a point with every m > 0 and alpha_l < 0 <
    alpha_n for n != l where the unit-sum defect D(x) of the seed fraction x
    has a minimum (D'' > 0).  That is where the branch's stable root dies as
    theta rises: the alpha signs give m_l > m* > m_n, so D rises there.
    """
    g, l = levels.g, st.l
    others = np.arange(levels.size) != l
    m, mu, theta = st.m_array(), st.mu, st.theta
    with np.errstate(all="ignore"):
        for _ in range(50):
            a = _alpha(levels, theta, m)
            inv = 1.0 / a
            s = float(np.sum(inv[others]))
            F, c = _phi(levels, theta, m) - mu, float(m.sum()) - 1.0
            margin = 1.0 + a[l] * s
            # margin row: d margin/dm_n and d margin/dtheta, with
            # q = d alpha/d theta and d alpha/dm = -theta q (g + 2m)/(m (g+m))
            q = g / (m * (g + m))
            da_dm = -theta * q * (g + 2.0 * m) / (m * (g + m))
            row = -a[l] * da_dm * inv * inv
            row[l] = da_dm[l] * s
            d_theta = q[l] * s - a[l] * float(np.sum((q * inv * inv)[others]))
            if max(float(np.max(np.abs(F))), abs(c), abs(margin)) <= 1e-12:
                # along the seed fraction dm_n/dx = alpha_l/alpha_n, so
                # D'' = alpha_l (row . 1/alpha)
                ok = (np.all(m > 0) and a[l] < 0 and np.all(a[others] > 0)
                      and a[l] * (row @ inv) > 0)
                return float(theta) if ok else None
            dm, dmu = _bordered_solve(inv, F, c)
            tm, tmu, _ = _tangent(levels, m, inv)
            den = float(d_theta + row @ tm)
            if not (math.isfinite(den) and den != 0):
                return None
            dth = -(margin + float(row @ dm)) / den
            m, mu, theta = m + (dm + dth * tm), mu + (dmu + dth * tmu), theta + dth
            if not (np.all((m > 0) & (m < np.inf)) and 0 < theta < np.inf):
                return None
    return None


def _branch_alive(levels: LevelSet, theta: float, l: int,
                  hint: float | None) -> BranchState | None:
    # an inadmissible seed does not depend on theta, and m* grows with it (it
    # cancels only below every live temperature), so their causes propagate
    _mstar(levels, theta)
    try:
        st = solve_branch(levels, theta, l, hint=hint)
    except BranchNotFound:
        raise
    except SolverError:
        return None
    return st if st.stable else None


def _tangent(levels: LevelSet, m: np.ndarray,
             inv: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    # (m', mu', L) at m with inv = 1/alpha, L = ln(m/(g+m)) = d phi/d theta:
    # implicit differentiation, alpha_n m_n' + L_n = mu' and sum m' = 0
    L = np.log(m / (levels.g + m))
    dm, dmu = _bordered_solve(inv, L, 0.0)
    return dm, dmu, L


def _corrected_state(levels: LevelSet, theta: float,
                     prev: BranchState) -> BranchState | None:
    """The branch at theta by a tangent predictor and a Newton corrector.

    The predictor steps along _tangent at prev in ln m, as the corrector
    _bordered_newton does (Allgower & Georg, Introduction to Numerical
    Continuation Methods, ch. 2 and 10).  The state is accepted when stable
    (alpha_l < 0 < alpha_n for n != l) with a positive margin; otherwise
    None, and the caller solves cold.
    """
    m, step = prev.m_array(), theta - prev.theta
    with np.errstate(all="ignore"):
        dm, dmu, _ = _tangent(levels, m, 1.0 / prev.alphas_array())
        state = _bordered_newton(levels, theta, m * np.exp(step * dm / m),
                                 prev.mu + step * dmu)
    if state is None:
        return None
    st = _finalize_state(levels, theta, prev.l, *state)
    return st if st.stable else None


def _fold_between(levels: LevelSet, st: BranchState, hi: float) -> float | None:
    # the fold temperature of st's branch if it lies in (st.theta, hi)
    theta_f = _fold_theta(levels, st)
    return theta_f if theta_f is not None and st.theta < theta_f < hi else None


def _grid_states(levels: LevelSet, l: int, thetas: np.ndarray
                 ) -> tuple[list[BranchState], float | None, float | None]:
    """Live states on the grid up to the first dead point, that point, and
    the fold temperature theta_f sought from the last live state.

    The walk starts at the first point whose cold solve succeeds: at the
    coldest points the tail occupations of a live branch can underflow, so
    leading points that fail are dropped, and BranchTerminated is raised
    only if no point solves.  Off the ground seed each later point is
    predicted and corrected from the one before.  Where the corrector
    fails, theta_f is sought from the last live state: past the fold the
    branch is dead, so a point above theta_f (1 + 1e-9) is not solved, and
    any other is solved cold, hinted by the last state.  The dead point is
    None if the branch lives on the rest of the grid; theta_f is None unless
    it lies between the last live state and the dead point.
    """
    states: list[BranchState] = []
    theta_f = None
    for theta in map(float, thetas):
        prev = states[-1] if states else None
        st = None
        if prev is not None and l != levels.ground:
            st = _corrected_state(levels, theta, prev)
            if st is None:
                theta_f = _fold_between(levels, prev, theta)
                if theta_f is not None and theta > theta_f * (1.0 + 1e-9):
                    return states, theta, theta_f
        if st is None:
            st = _branch_alive(levels, theta, l, None if prev is None else prev.m[l])
        if st is None:
            if prev is None:
                continue
            return states, theta, theta_f
        if prev is not None:
            # ties allowed: below float resolution the occupations underflow
            old, cur = prev.m_array(), st.m_array()
            if cur[l] > old[l] or np.any(np.delete(cur, l) < np.delete(old, l)):
                raise SolverError("branch monotonicity violated during continuation")
        states.append(st)
    if not states:
        raise BranchTerminated("branch has no solution on the given grid")
    return states, None, None


def _bisect_death(levels: LevelSet, l: int, states: list[BranchState],
                  hi: float | None, theta_f: float | None,
                  solve_live: bool) -> tuple[list[BranchState], float | None]:
    """Bisect (states[-1].theta, hi) to 1e-8 relative; (states, theta_c).

    The grid states come back followed by the solved live midpoints, and
    theta_c is the last live midpoint (states[-1].theta if none is); theta_c
    is None, and states as given, when hi is None.  Past the fold theta_f
    the branch is dead, so a midpoint above theta_f (1 + 1e-9) is not
    solved, and with solve_live False neither is one below theta_f
    (1 - 1e-9), which is alive; midpoints inside that band are.  theta_f is
    the walk's, sought from the last grid state; while it is None, the fold
    is sought from each new live midpoint.  Not for the ground seed: its
    defect has a second minimum at the edge x = m* (margin 1 there), whose
    root can outlive the fold and is then the one solved.
    """
    if hi is None:
        return states, None
    lo, hint = states[-1].theta, states[-1].m[l]
    fold_from = None
    live: list[BranchState] = []
    while (hi - lo) > 1e-8 * hi:
        if fold_from is not None:
            theta_f, fold_from = _fold_between(levels, fold_from, hi), None
        mid = 0.5 * (lo + hi)
        if theta_f is not None and mid > theta_f * (1.0 + 1e-9):
            alive = False
        elif (theta_f is not None and not solve_live
              and mid < theta_f * (1.0 - 1e-9)):
            alive = True
        else:
            st = _branch_alive(levels, mid, l, hint)
            alive = st is not None
            if alive:
                hint = st.m[l]
                live.append(st)
                if theta_f is None and l != levels.ground:
                    fold_from = st
        if alive:
            lo = mid
        else:
            hi = mid
    return states + live, lo


def continue_branch(levels: LevelSet, l: int,
                    theta_grid: Sequence[float]) -> ContinuationResult:
    """Track the branch over an increasing temperature grid.

    Off the ground seed, each grid state after the first comes from a
    tangent predictor and a bordered Newton corrector; where it fails, a
    point past the fold of the last state is dead and any other is solved
    cold (the walk branch_points_near takes too).  The ground seed is solved
    at every point, warm-started by the one before.  Grid states must keep
    the branch's monotonicity (seed fraction falls, all others rise).  A
    state is alive when it solves, is stable and has a positive margin.  If
    the branch dies inside the grid, the gap after the last live grid point
    is bisected to 1e-8 relative, solving every live midpoint cold and none
    past the fold: theta_c is the last live temperature, and the live
    bisection states follow the grid states in increasing theta.  Leading
    grid points where the cold solve fails are dropped, and the walk starts
    at the first that solves; BranchTerminated if none does.
    """
    thetas = check_grid(theta_grid, "theta grid", "positive")
    l = check_count(l, "seed level l")
    states, theta_c = _bisect_death(levels, l, *_grid_states(levels, l, thetas),
                                    solve_live=True)
    return ContinuationResult(states=tuple(states), theta_c=theta_c)


# ---------------------------------------------------------------------------
# entropy, heat capacity, and the square-root law at the fold


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
        dm, _, L = _tangent(levels, st.m_array(), 1.0 / st.alphas_array())
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
    check_real(theta_c, "theta_c", "positive")
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
    """The branch at theta_c - delta for each offset, by increasing theta.

    The grid walk of continue_branch: the lowest temperature solved cold,
    the rest by its predictor-corrector.  InputError unless the offsets give
    distinct positive temperatures; BranchTerminated if one is dead.
    """
    deltas = np.sort(np.asarray(deltas, dtype=float))[::-1]
    for d in deltas:
        check_real(d, "offsets below theta_c", "positive")
    thetas = check_grid(theta_c - deltas, "temperatures theta_c - offset",
                        "positive")
    states, first_bad, _ = _grid_states(levels, check_count(l, "seed level l"),
                                        thetas)
    if states[0].theta > thetas[0]:  # the walk dropped the lowest offsets
        first_bad = float(thetas[0])
    if first_bad is not None:
        raise BranchTerminated(f"branch terminated at theta {first_bad:.12g}")
    return tuple(states)


# ---------------------------------------------------------------------------
# transition certificate and the two-level scan oracle


@dataclass(frozen=True)
class TransitionCertificate:
    theta_c: float
    f_meta: float
    f_ground: float
    jump: float


def zeroth_order_certificate(levels: LevelSet, l: int) -> TransitionCertificate:
    """Free-energy jump between the dying branch and the ground state.

    Continues the seed-l branch over 48 geometric temperatures from 1e-3 to
    1 times theta_upper_bound (from the first of them at which it solves)
    by the walk of continue_branch, and bisects the gap where it dies on the
    same schedule, to the same theta_c; the points that the fold decides
    are not solved.  The free energy at theta_c (the last live midpoint's,
    or one solve) is compared with the ground solution there.  A positive
    jump is the zeroth-order signature: the free energy itself, not just
    its derivatives, is discontinuous when the branch dies.
    """
    l = check_count(l, "seed level l")
    return _certificate(levels, l, *_bisect_death(
        levels, l, *_grid_states(levels, l, _certificate_grid(levels, l)),
        solve_live=False))


def _certificate_grid(levels: LevelSet, l: int, points: int = 48) -> np.ndarray:
    if l == levels.ground:
        raise InputError("certificate requires a non-ground seed")
    hi = theta_upper_bound(levels)
    return np.geomspace(1e-3 * hi, hi, points)


def _certificate(levels: LevelSet, l: int, states: Sequence[BranchState],
                 theta_c: float | None) -> TransitionCertificate:
    # the state at theta_c: the last one when it sits there (always, on the
    # continuation route), else one hinted solve
    if theta_c is None:
        raise SolverError("branch survived the entire temperature grid")
    meta = states[-1]
    if meta.theta != theta_c:
        meta = _branch_alive(levels, theta_c, l, meta.m[l])
        if meta is None:
            raise SolverError(f"branch is dead at its critical temperature "
                              f"{theta_c:.12g}")
    ground = solve_branch(levels, theta_c, levels.ground)
    return TransitionCertificate(theta_c=float(theta_c), f_meta=float(meta.f),
                                 f_ground=float(ground.f),
                                 jump=float(meta.f - ground.f))


def _continuation_and_certificate(levels: LevelSet, l: int, points: int = 48
                                  ) -> tuple[ContinuationResult,
                                             TransitionCertificate]:
    # one continuation serves both the certificate and the sweep's rows
    cont = continue_branch(levels, l, _certificate_grid(levels, l, points))
    return cont, _certificate(levels, l, cont.states, cont.theta_c)


def scalar_scan_minima(levels: LevelSet, theta: float,
                       step: float = 1e-4) -> tuple:
    """Brute-force local minima of the two-level free energy over m_1.

    Scans f((1-x, x)) on a uniform x grid and returns the interior local
    minimizer locations.  Oracle for the self-consistent solver; two-level
    instances only.
    """
    if levels.size != 2:
        raise InputError("scan oracle is defined for two-level instances")
    check_real(theta, "theta", "nonnegative")
    if not (0 < check_real(step, "step") < 0.5):
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
