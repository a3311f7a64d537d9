"""Debt-velocity accounting and condensation thresholds.

A debt position of principal N_i turning over sigma_i times a year
contributes N_i*sigma_i to the negative money supply M; long-term credit of
L years turns over at rate 1/L.  Levels indexed i = 1..k with Pareto
degeneracies alpha_i = alpha_1 * i^(-gamma) and level energies i^q carry at
most

    N0(theta) = sum_i alpha_i * i / (exp(i^q / theta) - 1)

debt positions at zero chemical potential; anything beyond N0 condenses
onto the slowest class.  The model behind N0 is an explicit stand-in (the
source material leaves it unspecified), so every output of it should be
read as model-dependent.

The two-level economy at the end is exact: an exhaustive scan of

    E(N1) = [N1 + 2*N2 - gamma*N1^2/(2N) - gamma*N2^2/(2N)] -/+ T*ln(Gamma)

over N1 = 0..N, with the multinomial-boson multiplicity Gamma evaluated by
log-Gamma and the entropy sign selectable between the free-energy form
(minus, default) and the literal printed form (plus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln

from .errors import GuardExceeded, InputError

SOCIAL_SCAN_GUARD = 5000

_SIGN_CONVENTIONS = ("minus", "plus")


# ---------------------------------------------------------------------------
# debt ledger


@dataclass(frozen=True)
class DebtPosition:
    principal: float
    velocity: float  # turnovers per year

    def __post_init__(self) -> None:
        if self.principal < 0:
            raise InputError("principal must be nonnegative")
        if self.velocity <= 0:
            raise InputError("velocity must be positive")


@dataclass(frozen=True)
class LongTermDebt:
    principal: float
    years: float  # annual turnover rate is 1/years

    def __post_init__(self) -> None:
        if self.principal < 0:
            raise InputError("principal must be nonnegative")
        if self.years < 1:
            raise InputError("long-term credit must run for at least a year")


@dataclass(frozen=True)
class DebtLedger:
    positions: tuple = ()
    long_term: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", tuple(self.positions))
        object.__setattr__(self, "long_term", tuple(self.long_term))
        for p in self.positions:
            if not isinstance(p, DebtPosition):
                raise InputError("positions must be DebtPosition entries")
        for p in self.long_term:
            if not isinstance(p, LongTermDebt):
                raise InputError("long_term must be LongTermDebt entries")

    def money_supply(self) -> float:
        short = sum(p.principal * p.velocity for p in self.positions)
        slow = sum(p.principal / p.years for p in self.long_term)
        return float(short + slow)


@dataclass(frozen=True)
class DebtSupply:
    M: float
    N: float


def debt_supply(ledger: DebtLedger, sigma_avg: float) -> DebtSupply:
    """Total yearly money turnover M and its count equivalent N = M/sigma."""
    if sigma_avg <= 0:
        raise InputError("sigma_avg must be positive")
    M = ledger.money_supply()
    return DebtSupply(M=M, N=M / sigma_avg)


# ---------------------------------------------------------------------------
# Pareto levels and the condensation threshold


@dataclass(frozen=True)
class ParetoLevels:
    """Level degeneracies alpha_i = alpha_1 * i^(-gamma), energies i^q."""

    gamma: float
    k: int
    alpha1: float = 1.0
    q: float = 2.0

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise InputError("gamma must be positive")
        if self.k < 1 or int(self.k) != self.k:
            raise InputError("k must be a positive integer")
        if self.alpha1 <= 0:
            raise InputError("alpha1 must be positive")
        if self.q <= 0:
            raise InputError("q must be positive")

    def alphas(self) -> np.ndarray:
        i = np.arange(1, self.k + 1, dtype=float)
        return self.alpha1 * i ** (-self.gamma)


def _bose_factor(x: np.ndarray) -> np.ndarray:
    # 1/(e^x - 1) for x > 0, stable for both tiny and huge x
    ex = np.exp(-x)
    return ex / (-np.expm1(-x))


def critical_number(levels: ParetoLevels, theta: float) -> float:
    """Maximal debt count the excited levels carry at temperature theta."""
    if theta <= 0:
        raise InputError("theta must be positive")
    i = np.arange(1, levels.k + 1, dtype=float)
    return float(np.sum(levels.alphas() * i * _bose_factor(i ** levels.q / theta)))


def money_at_theta(levels: ParetoLevels, theta: float) -> float:
    """Money carried by the excited levels: sum alpha_i i^q Bose(i^q/theta)."""
    if theta <= 0:
        raise InputError("theta must be positive")
    i = np.arange(1, levels.k + 1, dtype=float)
    e = i ** levels.q
    return float(np.sum(levels.alphas() * e * _bose_factor(e / theta)))


@dataclass(frozen=True)
class CondensateReport:
    excess: float
    assigned_level: str


def condensate_excess(levels: ParetoLevels, theta: float, N: float) -> CondensateReport:
    """Debt count beyond the threshold, assigned to the slowest class."""
    if N < 0:
        raise InputError("N must be nonnegative")
    n0 = critical_number(levels, theta)
    excess = max(0.0, N - n0)
    return CondensateReport(excess=float(excess),
                            assigned_level="slowest class (long-term debts)")


# ---------------------------------------------------------------------------
# multi-currency threshold scaling


def sqrt_threshold_model(c: float = 1.0) -> Callable[[float], float]:
    """Threshold model N0(M) = c*sqrt(M) under which splitting gains sqrt(K)."""
    if c <= 0:
        raise InputError("c must be positive")
    return lambda M: c * math.sqrt(M)


def empirical_threshold_model(levels: ParetoLevels) -> Callable[[float], float]:
    """Threshold as a function of money: invert the money constraint for theta.

    Given M, solves sum alpha_i i^q Bose(i^q/theta) = M for theta (the map is
    strictly increasing) and returns the critical number there.
    """

    def n0_of_money(M: float) -> float:
        if M <= 0:
            raise InputError("money supply must be positive")
        lo, hi = 1e-12, 1.0
        while money_at_theta(levels, hi) < M:
            hi *= 2.0
            if hi > 1e14:
                raise InputError("money supply out of the invertible range")
        while money_at_theta(levels, lo) > M:
            lo *= 0.5
            if lo < 1e-300:
                raise InputError("money supply out of the invertible range")
        theta = brentq(lambda t: money_at_theta(levels, t) - M, lo, hi,
                       rtol=8.9e-16, maxiter=200)
        return critical_number(levels, theta)

    return n0_of_money


@dataclass(frozen=True)
class CurrencySplit:
    ratio: float
    K: int


def multi_currency_threshold(M_total: float, K: int,
                             threshold_model: Callable[[float], float]
                             ) -> CurrencySplit:
    """Gain of splitting one currency into K: ratio = K*N0(M/K) / N0(M)."""
    if K < 1 or int(K) != K:
        raise InputError("K must be a positive integer")
    if M_total <= 0:
        raise InputError("M_total must be positive")
    whole = float(threshold_model(M_total))
    split = float(threshold_model(M_total / K))
    if whole <= 0 or split <= 0:
        raise InputError("threshold model must be positive")
    return CurrencySplit(ratio=K * split / whole, K=int(K))


def long_term_gdp_contribution(C_done_per_year: float, C_total: float,
                               E_total: float, L: float) -> float:
    """Yearly GDP reading of an L-year project.

    Work performed per year minus the financing drag (C_total - E_total)/L.
    The underlying accounting sentence is ambiguous; this is the fixed,
    documented reading.
    """
    if L < 1:
        raise InputError("L must be at least one year")
    return float(C_done_per_year - (C_total - E_total) / L)


# ---------------------------------------------------------------------------
# two-level social-explosion model


@dataclass(frozen=True)
class TwoLevelEconomy:
    """Populations n1, n2 on levels 1 and 2 sharing N money units.

    Level values are fixed at 1 and 2; the quadratic interaction strength
    gamma_int must sit strictly between 1 and 2.
    """

    n1: int
    n2: int
    N: int
    gamma_int: float
    sign_convention: str = "minus"
    T: float | None = None

    def __post_init__(self) -> None:
        for name, v in (("n1", self.n1), ("n2", self.n2), ("N", self.N)):
            if v < 1 or int(v) != v:
                raise InputError(f"{name} must be a positive integer")
        if not (1.0 < self.gamma_int < 2.0):
            raise InputError("gamma_int must lie strictly between 1 and 2")
        if self.sign_convention not in _SIGN_CONVENTIONS:
            raise InputError(f"sign_convention must be one of {_SIGN_CONVENTIONS}")
        if self.T is not None and self.T < 0:
            raise InputError("T must be nonnegative")


def _energy_part(eco: TwoLevelEconomy) -> np.ndarray:
    n1 = np.arange(eco.N + 1, dtype=float)
    n2 = eco.N - n1
    return n1 + 2.0 * n2 - eco.gamma_int * (n1 * n1 + n2 * n2) / (2.0 * eco.N)


def _log_multiplicity(eco: TwoLevelEconomy) -> np.ndarray:
    n1 = np.arange(eco.N + 1, dtype=float)
    n2 = eco.N - n1
    return (gammaln(n1 + eco.n1) - gammaln(eco.n1) - gammaln(n1 + 1.0)
            + gammaln(n2 + eco.n2) - gammaln(eco.n2) - gammaln(n2 + 1.0))


def social_functional(eco: TwoLevelEconomy, T: float) -> np.ndarray:
    """E(N1) over N1 = 0..N at temperature T, per the sign convention."""
    if T < 0:
        raise InputError("T must be nonnegative")
    e = _energy_part(eco)
    s = _log_multiplicity(eco)
    return e - T * s if eco.sign_convention == "minus" else e + T * s


@dataclass(frozen=True)
class ExplosionScan:
    T: tuple
    argmin_N1: tuple
    E_parts: tuple
    T_star: float | None
    jump_size: int
    kinetic_outburst: float | None


def social_explosion_scan(eco: TwoLevelEconomy,
                          T_grid: Sequence[float]) -> ExplosionScan:
    """Exhaustive minimizer trace of the two-level functional over a T grid.

    For each T the functional is scanned over every split N1 = 0..N; ties go
    to the smallest N1.  T_star is the first grid point whose minimizer
    moved at least 0.9*N in one step from its predecessor; the kinetic
    outburst is the energy-part change across that jump.
    """
    if eco.N > SOCIAL_SCAN_GUARD:
        raise GuardExceeded(f"exhaustive scan guarded at N <= {SOCIAL_SCAN_GUARD}")
    Ts = np.asarray(T_grid, dtype=float)
    if Ts.ndim != 1 or Ts.size < 1:
        raise InputError("T grid must be a nonempty 1-d sequence")
    if np.any(Ts < 0) or np.any(np.diff(Ts) <= 0):
        raise InputError("T grid must be nonnegative and increasing")
    e = _energy_part(eco)
    s = _log_multiplicity(eco)
    sign = -1.0 if eco.sign_convention == "minus" else 1.0

    mins = [int(np.argmin(e + sign * T * s)) for T in Ts]
    T_star = None
    jump_size = 0
    outburst = None
    for j in range(1, len(mins)):
        step = abs(mins[j] - mins[j - 1])
        if step > jump_size:
            jump_size = step
        if T_star is None and step >= 0.9 * eco.N:
            T_star = float(Ts[j])
            outburst = float(e[mins[j]] - e[mins[j - 1]])
    return ExplosionScan(T=tuple(float(T) for T in Ts),
                         argmin_N1=tuple(mins),
                         E_parts=tuple(float(e[i]) for i in mins),
                         T_star=T_star,
                         jump_size=int(jump_size),
                         kinetic_outburst=outburst)
