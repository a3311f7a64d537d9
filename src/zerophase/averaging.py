"""Nonlinear financial averaging and spectrum admissibility checks.

The average of outcomes lam_1..lam_l under weights p_1..p_l is built from a
strictly monotone kernel f as  f^{-1}(sum_i p_i f(lam_i)).  Two kernel families
keep the average shift-covariant (avg(lam + a) = avg(lam) + C*a with constant
C): the exponential kernel f(x) = exp(-beta*x), which yields the log-exp mean

    avg = -(1/beta) * ln( sum_i p_i exp(-beta*lam_i) ),

and affine kernels, which reduce to the weighted arithmetic mean.  Any other
kernel breaks shift covariance; a cubic test hook demonstrates this.

A spectrum lam_1..lam_l is resonance-free up to bound K when no nonzero
integer vector k with |k_i| <= K satisfies both sum_i k_i = 0 and
sum_i lam_i k_i = 0.  Spectra sampled from a degree-p polynomial on the
integer points 0..N always carry such a relation when p < N (the (p+1)-th
finite difference of a degree-p polynomial vanishes and its binomial
coefficients sum to zero), and generically carry none when p >= N.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from ._numeric import check_count, check_real, logsumexp
from .errors import GuardExceeded, InputError

ENUMERATION_GUARD = 10**8
_RELATION_RTOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Ordered level values, optionally stamped with a resonance certificate."""

    values: tuple[float, ...]
    resonance_free: bool | None = None
    resonance_bound: int | None = None

    def __post_init__(self):
        if len(self.values) < 1:
            raise InputError("spectrum needs at least one level")
        if not all(math.isfinite(v) for v in self.values):
            raise InputError("spectrum values must be finite")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def size(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights paired with a Spectrum; support must be nonempty."""

    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if any(w < 0 or not math.isfinite(w) for w in self.weights):
            raise InputError("weights must be finite and nonnegative")
        if not self.support:
            raise InputError("degenerate weights: empty support")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if w > 0)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


@dataclass(frozen=True)
class AveragingKernel:
    """Admissible averaging kernel: exponential(beta) or linear(A, D).

    A custom (f, f_inv) pair can be attached for tests only; it is evaluated
    directly without stabilization and exists to demonstrate that kernels
    outside the two admissible families violate shift covariance.
    """

    kind: str
    beta: float = 1.0
    A: float = 1.0
    D: float = 0.0
    f: Callable[[float], float] | None = None
    f_inv: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.kind == "exponential":
            check_real(self.beta, "exponential kernel beta", "positive")
        elif self.kind == "linear":
            check_real(self.D, "linear kernel D")
            if check_real(self.A, "linear kernel A") == 0:
                raise InputError("linear kernel needs A != 0")
        elif self.kind == "_custom":
            if self.f is None or self.f_inv is None:
                raise InputError("custom kernel needs f and f_inv")
        else:
            raise InputError(f"unknown kernel kind: {self.kind!r}")

    @staticmethod
    def exponential(beta: float) -> "AveragingKernel":
        return AveragingKernel(kind="exponential", beta=beta)

    @staticmethod
    def linear(A: float = 1.0, D: float = 0.0) -> "AveragingKernel":
        return AveragingKernel(kind="linear", A=A, D=D)

    @staticmethod
    def _test_hook(f: Callable[[float], float], f_inv: Callable[[float], float]) -> "AveragingKernel":
        return AveragingKernel(kind="_custom", f=f, f_inv=f_inv)


def _coerce_spectrum(spectrum: Spectrum | Sequence[float]) -> Spectrum:
    if isinstance(spectrum, Spectrum):
        return spectrum
    values = np.asarray(spectrum)
    if values.ndim != 1:
        raise InputError("spectrum must be a 1-d sequence of level values")
    return Spectrum(tuple(values))


def _coerce_weights(weights: WeightVector | Sequence[float]) -> WeightVector:
    if isinstance(weights, WeightVector):
        return weights
    values = np.asarray(weights)
    if values.ndim != 1:
        raise InputError("weights must be a 1-d sequence of level weights")
    return WeightVector(tuple(values))


def financial_average(
    kernel: AveragingKernel,
    spectrum: Spectrum | Sequence[float],
    weights: WeightVector | Sequence[float],
) -> float:
    """Kernel average of the spectrum under the given (unnormalized) weights.

    The exponential kernel path runs entirely in log space (shift by the max
    exponent), so it cannot overflow.  No normalization is applied for the
    exponential kernel; the linear kernel divides by the weight total.
    """
    spectrum = _coerce_spectrum(spectrum)
    weights = _coerce_weights(weights)
    lam = spectrum.as_array()
    p = weights.as_array()
    if lam.shape != p.shape:
        raise InputError("spectrum and weights must have equal length")

    if kernel.kind == "exponential":
        beta = kernel.beta
        # log(sum p_i e^{-beta lam_i}) as one log-sum-exp over the support
        total = logsumexp(-beta * lam[p > 0] + np.log(p[p > 0]))
        return float(-total / beta)
    if kernel.kind == "linear":
        return float(np.dot(p, lam) / p.sum())
    # test-only hook: direct evaluation, overflow surfaces as an error
    acc = sum(pi * kernel.f(li) for pi, li in zip(p, lam))
    result = kernel.f_inv(acc)
    if not math.isfinite(result):
        raise InputError(
            "overflow in kernel evaluation; use an admissible kernel kind, "
            "which is evaluated on the shift-stabilized path"
        )
    return float(result)


@dataclass(frozen=True)
class ShiftReport:
    C: float
    residual: float


def verify_shift_axiom(
    kernel: AveragingKernel,
    spectrum: Spectrum | Sequence[float],
    weights: WeightVector | Sequence[float],
    shift: float,
) -> ShiftReport:
    """Empirical shift constant C = [avg(lam + a) - avg(lam)] / a.

    The residual is the largest deviation of C over a small sample of probe
    shifts derived from a (scaled and negated copies); admissible kernels give
    residual ~ 0 because C is exactly 1 for them.
    """
    if check_real(shift, "shift a") == 0:
        raise InputError("shift a must be nonzero")
    spectrum = _coerce_spectrum(spectrum)
    weights = _coerce_weights(weights)
    base = financial_average(kernel, spectrum, weights)

    def c_at(a: float) -> float:
        shifted = Spectrum(tuple(v + a for v in spectrum.values))
        return (financial_average(kernel, shifted, weights) - base) / a

    c_main = c_at(shift)
    probes = [shift, -shift, 0.5 * shift, 2.0 * shift]
    residual = max(abs(c_at(a) - c_main) for a in probes)
    return ShiftReport(C=c_main, residual=residual)


@dataclass(frozen=True)
class ResonanceReport:
    holds: bool
    witness: tuple[int, ...] | None
    bound: int


def _canonical_witness(k: tuple[int, ...]) -> tuple[int, ...]:
    # fix the sign so the first nonzero entry is positive
    for entry in k:
        if entry != 0:
            return k if entry > 0 else tuple(-x for x in k)
    return k


# The vectors depend on the shell and the chunk alone, never on the spectrum,
# so repeated checks and probes reuse them.  A chunk holds at most 1e6
# entries before filtering, 8 MB, so the cache holds at most 64 MB; the
# seven chunks of a check at l = 6, bound 4 and a probe at l = 4, bound 3
# all fit.
@lru_cache(maxsize=8)
def _shell_vectors(shell: int, l: int, start: int, stop: int) -> np.ndarray:
    """Sum-zero vectors of one shell from prefixes start..stop-1, in order.

    Prefix number i spells (k_1..k_{l-1}) in base 2*shell+1, k_1 the most
    significant digit, as itertools.product orders them; k_l = -sum(prefix)
    is the one last entry that can give sum zero.  Rows where it leaves the
    shell, or where max|k_i| falls below the shell, are dropped.
    """
    base = 2 * shell + 1
    index = np.arange(start, stop)
    k = np.empty((index.size, l), dtype=np.int64)
    for j in range(l - 2, -1, -1):
        index, k[:, j] = np.divmod(index, base)
    k[:, :-1] -= shell
    k[:, -1] = -k[:, :-1].sum(axis=1)
    k = k[np.abs(k[:, -1]) <= shell]
    k = k[np.abs(k).max(axis=1) == shell]
    k.setflags(write=False)
    return k


def check_resonance_free(spectrum: Spectrum | Sequence[float], bound: int) -> ResonanceReport:
    """Bounded enumeration of integer relations sum(k)=0, sum(lam*k)=0.

    Vectors are visited shell by shell in max|k_i|, so the simplest witness is
    found first; within a shell they come in itertools.product order, in
    blocks of about 1e6 entries.  Integer spectra are compared exactly, in
    Python ints; otherwise the pairing is summed left to right, one
    coordinate at a time, and compared with a relative tolerance against
    max|lam|.
    """
    spectrum = _coerce_spectrum(spectrum)
    # stricter than check_count (no 2.0): the bound is stored in resonance_bound
    if not isinstance(bound, numbers.Integral):
        raise InputError("bound K must be a positive integer")
    K = check_count(bound, "bound K", 1)
    lam = spectrum.values
    l = len(lam)
    if (2 * K + 1) ** l > ENUMERATION_GUARD:
        raise GuardExceeded("bound too large: (2K+1)^l exceeds the enumeration guard")

    if all(v.is_integer() for v in lam):
        # 1e300 is an integer too: Python ints keep every product exact
        values, tol = np.array([int(v) for v in lam], dtype=object), 0
    else:
        values, tol = np.array(lam), _RELATION_RTOL * max(abs(v) for v in lam)

    rows = max(1, int(1e6) // l)
    for shell in range(1, K + 1):
        prefixes = (2 * shell + 1) ** (l - 1)
        for start in range(0, prefixes, rows):
            k = _shell_vectors(shell, l, start, min(prefixes, start + rows))
            k = k.astype(values.dtype, copy=False)
            pairing = 0
            for j in range(l):
                pairing = pairing + k[:, j] * values[j]
            hits = np.flatnonzero(abs(pairing) <= tol)
            if hits.size:
                witness = tuple(int(x) for x in k[hits[0]])
                return ResonanceReport(holds=False, witness=_canonical_witness(witness),
                                       bound=bound)
    return ResonanceReport(holds=True, witness=None, bound=bound)


def certify_resonance_free(spectrum: Spectrum, bound: int) -> Spectrum:
    """Return a copy of the spectrum stamped with the enumeration verdict."""
    report = check_resonance_free(spectrum, bound)
    return replace(spectrum, resonance_free=report.holds, resonance_bound=bound)


def polynomial_spectrum(coefficients: Iterable[float], N: int) -> Spectrum:
    """Levels lam_j = sum_q A_q j^q for j = 0..N (N+1 levels)."""
    coeffs = [float(check_real(c, "polynomial coefficient"))
              for c in coefficients]
    if not coeffs:
        raise InputError("need at least one polynomial coefficient")
    N = check_count(N, "N", 1)
    points = np.arange(N + 1, dtype=float)
    # finite coefficients can overflow the sum; Spectrum rejects the inf/nan
    with np.errstate(over="ignore", invalid="ignore"):
        values = sum(c * points**q for q, c in enumerate(coeffs))
    return Spectrum(tuple(float(v) for v in values))


@dataclass(frozen=True)
class ProbeReport:
    fail_fraction: float
    trials: int
    witnesses: tuple[tuple[int, ...] | None, ...]


def probe_proposition3(p: int, N: int, trials: int, bound: int, seed: int) -> ProbeReport:
    """Fraction of random degree-p spectra on 0..N that carry an integer relation.

    Coefficients are drawn standard normal.  Degree below the point count
    minus one forces a relation (vanishing finite difference); at or above it
    the relation generically disappears.
    """
    trials = check_count(trials, "trials", 1)
    p = check_count(p, "polynomial degree p")
    rng = np.random.default_rng(check_count(seed, "seed"))
    failures = 0
    witnesses: list[tuple[int, ...] | None] = []
    for _ in range(trials):
        coeffs = rng.standard_normal(p + 1)
        spec = polynomial_spectrum(coeffs, N)
        report = check_resonance_free(spec, bound)
        if not report.holds:
            failures += 1
        witnesses.append(report.witness)
    return ProbeReport(
        fail_fraction=failures / trials, trials=trials, witnesses=tuple(witnesses)
    )
