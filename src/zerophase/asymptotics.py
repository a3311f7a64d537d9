"""Large-M limit laws of the ensemble evolution and their diagnostics.

For product initial data g, the per-system free energy and level marginals
after n evolution steps approach closed-form limits as M grows:

    F_limit(n, g) = -(1/beta) * ln sum_i exp(-n beta lam_i / (n+1)) g_i^{1/(n+1)}
    w_limit_i(n, g)  proportional to  exp(-n beta lam_i / (n+1)) g_i^{1/(n+1)}

restricted to the support of g.  As n -> infinity these flow to the Gibbs
free energy and distribution; Gibbs-form weights g = A exp(-beta lam) are a
fixed point for every n.  convergence_scan measures the finite-M errors
against the limits by running the exact class pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from . import ensemble
from .averaging import Spectrum
from .errors import InputError


def _support_exponents(
    g: Sequence[float], spectrum: Spectrum | Sequence[float], beta: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    g = np.asarray(g, dtype=float)
    lam = spectrum.as_array() if isinstance(spectrum, Spectrum) else np.asarray(spectrum, dtype=float)
    if g.shape != lam.shape:
        raise InputError("g and spectrum must have equal length")
    if np.any(g < 0):
        raise InputError("g must be nonnegative")
    mask = g > 0
    if not np.any(mask):
        raise InputError("empty support")
    if beta <= 0:
        raise InputError("beta must be > 0")
    if n < 0:
        raise InputError("n must be >= 0")
    expo = -n * beta * lam[mask] / (n + 1) + np.log(g[mask]) / (n + 1)
    return expo, mask


def limit_F(g: Sequence[float], spectrum: Spectrum | Sequence[float], beta: float, n: int) -> float:
    """Limiting specific free energy after n steps."""
    expo, _ = _support_exponents(g, spectrum, beta, n)
    return float(-logsumexp(expo) / beta)


def limit_w(g: Sequence[float], spectrum: Spectrum | Sequence[float], beta: float, n: int) -> np.ndarray:
    """Limiting level marginals after n steps (zero off the support of g)."""
    expo, mask = _support_exponents(g, spectrum, beta, n)
    w = np.zeros(mask.size)
    w[mask] = np.exp(expo - logsumexp(expo))
    return w


@dataclass(frozen=True)
class GibbsPoint:
    F_inf: float
    w_inf: np.ndarray


def gibbs_fixed_point(
    spectrum: Spectrum | Sequence[float], beta: float, support: Sequence[int] | None = None
) -> GibbsPoint:
    """Long-time limit: support-restricted free energy, full Gibbs weights.

    The free energy sums only over the support indices, while the weight
    vector is the Gibbs distribution over all levels regardless of support;
    the asymmetry is deliberate (the two limits are taken literally) and is
    surfaced here rather than hidden.
    """
    lam = spectrum.as_array() if isinstance(spectrum, Spectrum) else np.asarray(spectrum, dtype=float)
    if beta <= 0:
        raise InputError("beta must be > 0")
    idx = np.arange(lam.size) if support is None else np.asarray(sorted(set(support)), dtype=int)
    if idx.size == 0:
        raise InputError("support must be nonempty")
    if idx.min() < 0 or idx.max() >= lam.size:
        raise InputError("support indices out of range")
    F_inf = float(-logsumexp(-beta * lam[idx]) / beta)
    w_inf = np.exp(-beta * lam - logsumexp(-beta * lam))
    return GibbsPoint(F_inf=F_inf, w_inf=w_inf)


@dataclass(frozen=True)
class LimitReport:
    n: int
    F_limit: float
    w_limit: np.ndarray
    M_values: tuple[int, ...]
    F_exact: np.ndarray
    errors: np.ndarray
    w_exact: np.ndarray
    w_errors: np.ndarray


def convergence_scan(
    g: Sequence[float],
    spectrum: Spectrum | Sequence[float],
    beta: float,
    n: int,
    M_list: Sequence[int],
) -> LimitReport:
    """Exact finite-M free energy and marginals against the limit laws.

    Each M runs independently through the class pipeline (n evolution steps
    from the product state), in input order.
    """
    if n < 1:
        raise InputError("convergence scan needs n >= 1")
    if not M_list:
        raise InputError("M_list must be nonempty")
    g_arr = np.asarray(g, dtype=float)
    F_lim = limit_F(g_arr, spectrum, beta, n)
    w_lim = limit_w(g_arr, spectrum, beta, n)

    def run_one(M: int) -> tuple[float, np.ndarray]:
        state = ensemble.init_product_state(g_arr, M)
        for _ in range(n):
            state = ensemble.evolve_step(state, spectrum, beta)
        return ensemble.specific_free_energy(state, beta), ensemble.marginals(state)

    results = [run_one(M) for M in M_list]
    F_exact = np.array([r[0] for r in results])
    w_exact = np.stack([r[1] for r in results])
    return LimitReport(
        n=n,
        F_limit=F_lim,
        w_limit=w_lim,
        M_values=tuple(int(M) for M in M_list),
        F_exact=F_exact,
        errors=np.abs(F_exact - F_lim),
        w_exact=w_exact,
        w_errors=np.abs(w_exact - w_lim[None, :]).max(axis=1),
    )


def kl_divergence(w: np.ndarray, rho: np.ndarray) -> float:
    """Kullback-Leibler divergence KL(w || rho), conventions 0 ln 0 = 0."""
    w = np.asarray(w, dtype=float)
    rho = np.asarray(rho, dtype=float)
    mask = w > 0
    if np.any(rho[mask] <= 0):
        return float("inf")
    return float(np.sum(w[mask] * np.log(w[mask] / rho[mask])))
