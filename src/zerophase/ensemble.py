"""Exact finite-M ensemble in the occupation-class representation.

A state of M exchangeable systems over l levels is a function psi(i_1..i_M)
on index tuples, normed by the sum of absolute coefficients.  One evolution
step multiplies each tuple coefficient by exp(-beta * sum_s lam_{i_s}) and
then applies the data reduction R: within each occupation class {M} (the set
of tuples sharing level counts M_1..M_l), the state is replaced by the
class-constant vector carrying the 1-norm of the projected part.

Product initial data g and both maps preserve class-constancy, so the whole
pipeline runs on class coefficients c({M}).  One step maps

    c({M})  ->  c({M}) * exp(-beta * sum_i lam_i M_i) * M! / prod_i M_i!

where the multinomial factor is the class size picked up by the 1-norm.
After n steps from the product state the coefficient is in closed form

    c_n({M}) = (M!)^n * prod_i [ g_i^{M_i} exp(-n beta lam_i M_i) / (M_i!)^n ].

Counts grow like (M!)^n, so everything internal lives in log space; class
order is lexicographic in (M_1..M_l) to keep outputs byte-reproducible.

A dense tuple-space oracle (guarded to l <= 4, M <= 8) transcribes the
definitions literally and certifies the class reduction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from ._numeric import (as_counts, check_count, check_index, check_real,
                       log_factorial, logsumexp)
from .averaging import Spectrum, _coerce_spectrum, _coerce_weights
from .errors import GuardExceeded, InputError

ORACLE_MAX_LEVELS = 4
ORACLE_MAX_SYSTEMS = 8


# a layout is up to a few MB; a scan over many ensemble sizes would otherwise
# keep every one of them
@lru_cache(maxsize=8)
def _class_layout(M: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupation vectors (lexicographic) and their log class sizes.

    Returns (occupations, log_sizes) with occupations of shape (n_classes, l)
    and log_sizes[i] = ln(M! / prod_j M_ij!).
    """
    if l == 1:
        occ = np.array([[M]], dtype=np.int64)
    else:
        # stars and bars: l - 1 bars among M + l - 1 slots, in the
        # lexicographic order of combinations; the gaps between bars are
        # the occupations, in lexicographic order too
        slots = M + l - 1
        bars = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(slots), l - 1)),
            dtype=np.int64, count=math.comb(slots, l - 1) * (l - 1)).reshape(-1, l - 1)
        edges = np.empty((bars.shape[0], l + 1), dtype=np.int64)
        edges[:, 0], edges[:, 1:-1], edges[:, -1] = -1, bars, slots
        occ = np.diff(edges, axis=1) - 1
    lf = log_factorial(np.arange(M + 1))
    log_sizes = lf[M] - lf[occ].sum(axis=1)
    occ.setflags(write=False)
    log_sizes.setflags(write=False)
    return occ, log_sizes


def compositions(M: int, l: int) -> np.ndarray:
    """All occupation vectors with total M over l levels, lexicographic."""
    return _class_layout(check_count(M, "M"), check_count(l, "l", 1))[0]


@dataclass(frozen=True)
class EnsembleState:
    """Class-constant ensemble state: log coefficients per occupation class."""

    l: int
    M: int
    log_coeffs: np.ndarray
    step: int = 0

    def __post_init__(self):
        for name, low in (("l", 1), ("M", 1), ("step", 0)):  # as the gate's ints
            object.__setattr__(self, name, check_count(getattr(self, name), name, low))
        expected = len(compositions(self.M, self.l))
        if self.log_coeffs.shape != (expected,):
            raise InputError("coefficient array does not match the class layout")

    @property
    def occupations(self) -> np.ndarray:
        return compositions(self.M, self.l)

    def coeff(self, occ: Sequence[int]) -> float:
        """Linear-space coefficient of one occupation class."""
        idx = _class_index(self.M, self.l, occ)
        return float(np.exp(self.log_coeffs[idx]))


def _class_rank(occ: Sequence[int]) -> int:
    # row of occ in compositions(sum(occ), len(occ)), in exact ints: of the
    # C(rest+p-1, p-1) tails over the last p levels, those whose first entry
    # is below occ's entry a there, all but C(rest-a+p-1, p-1), come first
    rank, rest = 0, sum(occ)
    for p, a in zip(range(len(occ), 1, -1), occ):
        rank += math.comb(rest + p - 1, p - 1) - math.comb(rest - a + p - 1, p - 1)
        rest -= a
    return rank


def _class_index(M: int, l: int, occ: Sequence[int]) -> int:
    occ = as_counts(occ)
    if occ.shape != (l,) or occ.sum() != M:
        raise InputError("occupation vector must have l entries summing to M")
    return _class_rank(occ.tolist())


def _spectrum_array(spectrum: Spectrum | Sequence[float], l: int) -> np.ndarray:
    lam = _coerce_spectrum(spectrum).as_array()
    if lam.shape != (l,):
        raise InputError("spectrum length does not match the state level count")
    return lam


def _log_weight_power(g: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """ln prod_i g_i^{M_i} for each occupation row of occ; 0^0 = 1, 0^{M_i} = 0."""
    if occ.shape[1:] != g.shape:
        raise InputError("occupation vector needs one count per weight")
    with np.errstate(divide="ignore", invalid="ignore"):
        log_g = np.where(g > 0, np.log(np.where(g > 0, g, 1.0)), -np.inf)
        return np.where(occ > 0, occ * log_g, 0.0).sum(axis=1)


def init_product_state(g: Sequence[float], M: int) -> EnsembleState:
    """Product state: class {M} carries coefficient prod_i g_i^{M_i}."""
    g = _coerce_weights(g).as_array()
    M = check_count(M, "M", 1)
    occ = compositions(M, g.size)
    return EnsembleState(l=g.size, M=M, log_coeffs=_log_weight_power(g, occ), step=0)


def evolve_step(state: EnsembleState, spectrum: Spectrum | Sequence[float], beta: float) -> EnsembleState:
    """One application of reduce-after-cooling on class coefficients."""
    check_real(beta, "beta", "nonnegative")
    lam = _spectrum_array(spectrum, state.l)
    occ, log_sizes = _class_layout(state.M, state.l)
    energies = occ @ lam
    new_log = state.log_coeffs - beta * energies + log_sizes
    return EnsembleState(l=state.l, M=state.M, log_coeffs=new_log, step=state.step + 1)


def closed_form_log_coeff(
    g: Sequence[float],
    spectrum: Spectrum | Sequence[float],
    beta: float,
    M: int,
    n: int,
    occ: Sequence[int],
) -> float:
    """Log of the closed-form class coefficient after n steps."""
    g = _coerce_weights(g).as_array()
    lam = _spectrum_array(spectrum, g.size)
    check_real(beta, "beta", "nonnegative")
    n = check_count(n, "n")
    occ_arr = as_counts(occ)
    if occ_arr.sum() != M:
        raise InputError("occupation vector must sum to M")
    base = _log_weight_power(g, occ_arr[None])[0]
    log_size = log_factorial(M) - log_factorial(occ_arr).sum()
    return float(base + n * (log_size - beta * (occ_arr @ lam)))


def closed_form_coeff(
    g: Sequence[float],
    spectrum: Spectrum | Sequence[float],
    beta: float,
    M: int,
    n: int,
    occ: Sequence[int],
) -> float:
    return float(np.exp(closed_form_log_coeff(g, spectrum, beta, M, n, occ)))


def log_state_norm(state: EnsembleState) -> float:
    """Log of the 1-norm: ln sum_classes c({M}) * class_size."""
    _, log_sizes = _class_layout(state.M, state.l)
    return float(logsumexp(state.log_coeffs + log_sizes))


def state_norm(state: EnsembleState) -> float:
    """Linear-space norm; may overflow to inf for large M*n (use log_state_norm)."""
    log_norm = log_state_norm(state)
    with np.errstate(over="ignore"):
        return float(np.exp(log_norm))


def marginal(state: EnsembleState, i: int) -> float:
    """Fraction of tuple positions at level i under the normalized state.

    i is an integer in [-l, l); a negative one counts from the last level.
    """
    i = check_index(i, "level index i", state.l)
    return float(marginals(state)[i])


def marginals(state: EnsembleState) -> np.ndarray:
    """Mean occupation per system of each level under the normalized class law."""
    occ, log_sizes = _class_layout(state.M, state.l)
    log_norm = log_state_norm(state)
    if log_norm == -np.inf:
        raise InputError("zero norm state has no marginals")
    return occ.T @ np.exp(state.log_coeffs + log_sizes - log_norm) / state.M


def specific_free_energy(state: EnsembleState, beta: float) -> float:
    """F(n, g, M) = -ln(norm) / (M * beta * (n+1)) at the state's step n."""
    check_real(beta, "beta", "positive")
    return float(-log_state_norm(state) / (state.M * beta * (state.step + 1)))


# ---------------------------------------------------------------------------
# dense tuple-space oracle


@dataclass(frozen=True)
class TupleState:
    """Dense state over all l^M index tuples; oracle use only (guarded)."""

    psi: np.ndarray

    def __post_init__(self):
        M = self.psi.ndim
        l = self.psi.shape[0] if M else 0
        if M < 1 or M > ORACLE_MAX_SYSTEMS:
            raise GuardExceeded(f"oracle supports 1 <= M <= {ORACLE_MAX_SYSTEMS}")
        if l < 1 or l > ORACLE_MAX_LEVELS:
            raise GuardExceeded(f"oracle supports 1 <= l <= {ORACLE_MAX_LEVELS}")
        if any(s != l for s in self.psi.shape):
            raise InputError("tuple array must be l ** M shaped")

    @property
    def M(self) -> int:
        return self.psi.ndim

    @property
    def l(self) -> int:
        return self.psi.shape[0]


def tuple_product_state(g: Sequence[float], M: int) -> TupleState:
    """psi(i_1..i_M) = prod_s g_{i_s}."""
    g = _coerce_weights(g).as_array()
    # reject before the l**M outer product is materialized
    M = check_count(M, "M", 1)
    if M > ORACLE_MAX_SYSTEMS:
        raise GuardExceeded(f"oracle supports 1 <= M <= {ORACLE_MAX_SYSTEMS}")
    if g.size > ORACLE_MAX_LEVELS:
        raise GuardExceeded(f"oracle supports 1 <= l <= {ORACLE_MAX_LEVELS}")
    return TupleState(reduce(np.multiply.outer, [g] * M))


@lru_cache(maxsize=32)
def _tuple_occupation_codes(l: int, M: int) -> np.ndarray:
    """Per-tuple class ids, aligned to compositions."""
    idx = np.indices((l,) * M).reshape(M, -1)
    counts = np.stack([(idx == j).sum(axis=0) for j in range(l)], axis=1)
    ids = np.array([_class_rank(row) for row in counts.tolist()], dtype=np.int64)
    ids.setflags(write=False)
    return ids


def _tuple_energies(l: int, M: int, lam: np.ndarray) -> np.ndarray:
    total = np.zeros((l,) * M)
    for s in range(M):
        shape = [1] * M
        shape[s] = l
        total = total + lam.reshape(shape)
    return total


def oracle_evolve(ts: TupleState, spectrum: Spectrum | Sequence[float], beta: float) -> TupleState:
    """Literal one-step map: cool every tuple, then rebuild class-constant sums."""
    check_real(beta, "beta", "nonnegative")
    lam = _spectrum_array(spectrum, ts.l)
    cooled = ts.psi * np.exp(-beta * _tuple_energies(ts.l, ts.M, lam))
    ids = _tuple_occupation_codes(ts.l, ts.M)
    flat = cooled.reshape(-1)
    class_norms = np.bincount(ids, weights=np.abs(flat), minlength=len(compositions(ts.M, ts.l)))
    return TupleState(class_norms[ids].reshape(ts.psi.shape))


def oracle_norm(ts: TupleState) -> float:
    return float(np.abs(ts.psi).sum())


def oracle_marginal(ts: TupleState, i: int) -> float:
    """Distribution of the first system: sum of psi(i, ...) over the rest.

    i is an integer in [-l, l); a negative one counts from the last level.
    """
    i = check_index(i, "level index i", ts.l)
    norm = oracle_norm(ts)
    if norm == 0:
        raise InputError("zero norm state has no marginals")
    return float(np.sum(ts.psi[i]) / norm)


def class_project(ts: TupleState, occ: Sequence[int]) -> TupleState:
    """Projector onto one occupation class (zero elsewhere)."""
    idx = _class_index(ts.M, ts.l, occ)
    ids = _tuple_occupation_codes(ts.l, ts.M)
    mask = (ids == idx).reshape(ts.psi.shape)
    return TupleState(np.where(mask, ts.psi, 0.0))


def reduce_to_classes(ts: TupleState) -> EnsembleState:
    """The data reduction R on an arbitrary dense state."""
    ids = _tuple_occupation_codes(ts.l, ts.M)
    flat = np.abs(ts.psi.reshape(-1))
    class_norms = np.bincount(ids, weights=flat, minlength=len(compositions(ts.M, ts.l)))
    with np.errstate(divide="ignore"):
        return EnsembleState(l=ts.l, M=ts.M, log_coeffs=np.log(class_norms), step=0)


def ensemble_from_tuple(ts: TupleState, step: int = 0) -> EnsembleState:
    """Read class coefficients off a class-constant dense state.

    Raises unless each class's member values agree to 1e-9, relative.
    """
    ids = _tuple_occupation_codes(ts.l, ts.M)
    flat = ts.psi.reshape(-1)
    n_classes = len(compositions(ts.M, ts.l))
    values = np.zeros(n_classes)
    for c in range(n_classes):
        members = flat[ids == c]
        lo, hi = members.min(), members.max()
        if hi - lo > 1e-9 * max(abs(hi), abs(lo), 1e-300):
            raise InputError("dense state is not class-constant")
        values[c] = members[0]
    if np.any(values < 0):
        raise InputError("class coefficients must be nonnegative")
    with np.errstate(divide="ignore"):
        return EnsembleState(l=ts.l, M=ts.M, log_coeffs=np.log(values), step=step)
