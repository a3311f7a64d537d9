"""Kernel averaging, the shift axiom, and integer-relation checks."""

import itertools
import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerophase import averaging
from zerophase.averaging import (_RELATION_RTOL, AveragingKernel,
                                 ResonanceReport, Spectrum, WeightVector,
                                 _canonical_witness, certify_resonance_free,
                                 check_resonance_free,
                                 financial_average, polynomial_spectrum,
                                 probe_proposition3, verify_shift_axiom)
from zerophase.errors import GuardExceeded, InputError

EXP = AveragingKernel.exponential(1.0)


def test_two_level_closed_form():
    v = financial_average(EXP, (0.0, 1.0), (0.5, 0.5))
    expected = -math.log(0.5 + 0.5 * math.exp(-1.0))
    np.testing.assert_allclose(v, expected, rtol=1e-14)
    np.testing.assert_allclose(v, 0.3798854930417224, rtol=1e-13)


def test_degenerate_spectrum_returns_the_level():
    # all levels equal: any admissible average must return that value
    v = financial_average(EXP, (2.5, 2.5, 2.5), (0.2, 0.3, 0.5))
    np.testing.assert_allclose(v, 2.5, rtol=1e-14)


def test_linear_kernel_is_weighted_mean():
    lam = (1.0, 2.0, 4.0)
    p = (0.2, 0.3, 0.5)
    v = financial_average(AveragingKernel.linear(), lam, p)
    np.testing.assert_allclose(v, np.dot(p, lam) / sum(p), rtol=1e-14)
    # affine reparametrization of the kernel must not change the average
    v2 = financial_average(AveragingKernel.linear(A=3.0, D=-7.0), lam, p)
    np.testing.assert_allclose(v2, v, rtol=1e-14)


def test_log_space_stability_extreme_levels():
    # beta*lambda ~ 1e4 overflows a naive exponential sum
    v = financial_average(EXP, (1e4, 1e4 + 1.0), (0.5, 0.5))
    assert math.isfinite(v)
    assert 1e4 < v < 1e4 + 1.0


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("shift", [1.0, -2.0, 0.125])
def test_shift_axiom_exponential(beta, shift):
    report = verify_shift_axiom(AveragingKernel.exponential(beta),
                                (0.0, 0.7, 1.9), (0.2, 0.5, 0.3), shift)
    np.testing.assert_allclose(report.C, 1.0, atol=1e-10)
    assert report.residual < 1e-10


def test_shift_axiom_linear():
    report = verify_shift_axiom(AveragingKernel.linear(A=2.0, D=1.0),
                                (0.0, 1.0), (0.5, 0.5), 1.0)
    np.testing.assert_allclose(report.C, 1.0, atol=1e-12)


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal


def _check_shift_axiom(lam, p, beta, C):
    """avg(lam + C) = avg(lam) + C for both admissible kernels.

    Exponential: the exponents -beta (lam_i + C) carry two roundings each,
    logsumexp is 1-Lipschitz in them and adds a few roundings of its own,
    and the division by beta one more: a few eps of max|lam| + |C| + |avg|;
    the test allows 8.  The average adds ln p_i to each exponent: half an
    ulp of |ln p_i| a side, and another of the sum.  logsumexp also forms
    log1p(s) + log(m), m >= 1 the number of largest exponents and s the rest
    relative to them, so each log is at most ln(m + s) <= ln n; each is
    within one ulp, which is not small when avg is: two sides give
    2 eps ln(n) / beta.  With P the weight total and p_min the smallest
    positive weight, |ln p_i| and ln n <= ln(P / p_min) are at most
    |ln p_min| + |ln P|; the test allows 4 eps of that over beta.  Linear:
    the two dot products with the weights each err by at most n roundings
    of max|lam| + |C|; the test allows 2 (n + 2) eps of that.  A rounding
    that underflows may also lose one subnormal spacing, which the division
    by beta (exponential) or by the weight total (linear) scales up when
    they are below 1: the _TINY terms.
    """
    scale = float(np.max(np.abs(lam))) + abs(C)
    total = float(p.sum())
    logs = abs(math.log(float(np.min(p[p > 0])))) + abs(math.log(total))
    exp_kernel = AveragingKernel.exponential(beta)
    base = financial_average(exp_kernel, lam, p)
    shifted = financial_average(exp_kernel, lam + C, p)
    bound = (8 * _EPS * (scale + abs(base)) + 4 * _EPS * logs / beta
             + 8 * max(1.0, 1.0 / beta) * _TINY)
    assert abs(shifted - (base + C)) <= bound
    lin_kernel = AveragingKernel.linear()
    base = financial_average(lin_kernel, lam, p)
    shifted = financial_average(lin_kernel, lam + C, p)
    k = 2 * (lam.size + 2)
    bound = k * _EPS * scale + k * max(1.0, 1.0 / total) * _TINY
    assert abs(shifted - (base + C)) <= bound


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), beta=st.floats(0.1, 10.0),
       C=st.floats(-100.0, 100.0))
def test_shift_axiom_holds_to_rounding(data, n, beta, C):
    lam = data.draw(hnp.arrays(float, n, elements=st.floats(-100.0, 100.0)))
    p = data.draw(hnp.arrays(float, n, elements=st.one_of(
        st.just(0.0), st.floats(1e-3, 1.0))))
    p[data.draw(st.integers(0, n - 1))] = data.draw(st.floats(1e-3, 1.0))
    _check_shift_axiom(lam, p, beta, C)


def test_shift_axiom_holds_where_the_logs_dominate():
    # the exponents carry ln p_i (-1.07 and -0.29) while |avg| is 0.09, so
    # the roundings of ln p_i and of the logs inside logsumexp are not small
    # against avg
    _check_shift_axiom(np.array([-1.53011901e-105, 0.0]),
                       np.array([0.34375, 0.75]), 1.0, 2.0 ** -8)
    # the weights sum to 1, so avg is 0: the shift errs by 5.55e-17, four
    # times 8 eps (max|lam| + |C| + |avg|), inside the bound only once the
    # log terms count
    _check_shift_axiom(np.array([4.53484237e-16, -3.74287771e-16]),
                       np.array([0.390625, 0.609375]), 1.0, 2.0 ** -7)


def test_shift_axiom_rejects_cubic_kernel():
    """A cubic kernel fails translation covariance by a visible margin."""
    cubic = AveragingKernel._test_hook(
        lambda x: x ** 3, lambda y: math.copysign(abs(y) ** (1.0 / 3.0), y))
    report = verify_shift_axiom(cubic, (0.0, 1.0), (0.5, 0.5), 1.0)
    assert report.residual > 0.01
    np.testing.assert_allclose(report.residual, 0.730137953504986, rtol=1e-9)


def test_weight_validation():
    with pytest.raises(InputError):
        financial_average(EXP, (0.0, 1.0), (-0.1, 1.1))
    with pytest.raises(InputError):
        financial_average(EXP, (0.0, 1.0), (0.0, 0.0))
    with pytest.raises(InputError):
        financial_average(EXP, (0.0, 1.0, 2.0), (0.5, 0.5))


def test_resonance_witness_arithmetic_progression():
    report = check_resonance_free((1.0, 2.0, 3.0), 2)
    assert not report.holds
    assert report.witness == (1, -2, 1)
    # the witness is a genuine relation: zero coefficient sum, zero pairing
    assert sum(report.witness) == 0
    assert abs(sum(k * v for k, v in zip(report.witness, (1.0, 2.0, 3.0)))) < 1e-12


def test_resonance_free_irrational_levels():
    report = check_resonance_free((1.0, math.sqrt(2), math.pi), 3)
    assert report.holds
    assert report.witness is None


def test_resonance_enumeration_guard():
    with pytest.raises(GuardExceeded):
        check_resonance_free(tuple(float(j) for j in range(13)), 2)


def test_certify_stamps_spectrum():
    spec = certify_resonance_free(Spectrum((1.0, math.sqrt(2))), 4)
    assert spec.resonance_free is True
    assert spec.resonance_bound == 4


def test_polynomial_spectrum_values():
    spec = polynomial_spectrum((1.0, 0.0, 2.0), 3)  # 1 + 2 j^2 on j = 0..3
    np.testing.assert_allclose(spec.values, (1.0, 3.0, 9.0, 19.0))


def test_probe_low_degree_always_fails():
    report = probe_proposition3(p=1, N=3, trials=5, bound=2, seed=7)
    assert report.fail_fraction == 1.0
    for witness in report.witnesses:
        assert witness is not None
        assert sum(witness) == 0


def test_probe_full_degree_never_fails():
    report = probe_proposition3(p=3, N=3, trials=20, bound=3, seed=7)
    assert report.fail_fraction == 0.0


def test_resonance_bound_must_be_an_integer():
    for bound in (2.5, "2", True):
        with pytest.raises(InputError, match="bound K"):
            check_resonance_free((1.0, 2.0, 3.0), bound)
    with pytest.raises(InputError, match="bound K"):
        certify_resonance_free(Spectrum((1.0, 2.0)), 2.0)
    with pytest.raises(InputError, match="bound K"):
        probe_proposition3(p=1, N=3, trials=2, bound=False, seed=0)


# ---------------------------------------------------------------------------
# the vectorised enumeration against the tuple-at-a-time loop it replaced

def _resonance_oracle(spectrum, bound):
    """Every vector of each shell in itertools.product order, one at a time."""
    lam = tuple(float(v) for v in spectrum)
    l = len(lam)
    all_integer = all(float(v).is_integer() for v in lam)
    lam_int = tuple(int(v) for v in lam) if all_integer else None
    tol = _RELATION_RTOL * max(abs(v) for v in lam) if not all_integer else 0.0

    for shell in range(1, bound + 1):
        rng = range(-shell, shell + 1)
        for k in itertools.product(rng, repeat=l):
            if max(abs(x) for x in k) != shell:
                continue
            if sum(k) != 0:
                continue
            if all_integer:
                hit = sum(ki * vi for ki, vi in zip(k, lam_int)) == 0
            else:
                # left to right on every Python (3.12's sum() compensates)
                pairing = 0
                for ki, vi in zip(k, lam):
                    pairing = pairing + ki * vi
                hit = abs(pairing) <= tol
            if hit:
                return ResonanceReport(holds=False, witness=_canonical_witness(k), bound=bound)
    return ResonanceReport(holds=True, witness=None, bound=bound)


@st.composite
def _spectra(draw):
    kind = draw(st.sampled_from(["float", "integer", "polynomial", "one_decimal"]))
    if kind == "polynomial":
        # N + 1 levels of a degree-p polynomial: relations whenever p < N
        coeffs = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
        return polynomial_spectrum(coeffs, draw(st.integers(1, 4))).values
    elements = {"float": st.floats(-5.0, 5.0),
                "integer": st.integers(-6, 6).map(float),
                # decimal relations hold only up to rounding: ties near the tolerance
                "one_decimal": st.integers(-30, 30).map(lambda n: n / 10)}[kind]
    return tuple(draw(st.lists(elements, min_size=1, max_size=5)))


@settings(max_examples=300, deadline=None)
@given(lam=_spectra(), bound=st.integers(1, 3))
def test_resonance_enumeration_equals_tuple_oracle(lam, bound):
    assert check_resonance_free(lam, bound) == _resonance_oracle(lam, bound)


@pytest.mark.parametrize("lam, holds", [
    ((0.42151296323629667, 0.32852160702010147, 0.9759403305729062,
      0.8829489743576869), True),
    ((0.9969129520949023, 0.39457237144506174, 0.4054939737816822,
      -0.19684660686716135), True),
    ((0.9719741951837886, 0.5213089791108141, 0.43618740453015664,
      -0.014477811541845886), False),
    ((0.411421256470703, 0.9727836804229626, 0.5174559724479041,
      1.0788183964012426), False),
])
def test_resonance_pairing_is_summed_left_to_right(lam, holds):
    """lam_1 - lam_2 - lam_3 + lam_4 sits within an ulp of the tolerance.

    The left-to-right sum decides these; a matrix product that reorders or
    fuses the terms flips them, and a compensated sum (Python 3.12's sum())
    flips the last.
    """
    report = check_resonance_free(lam, 1)
    assert report.holds is holds
    assert report.witness == (None if holds else (1, -1, -1, 1))
    assert report == _resonance_oracle(lam, 1)


def test_resonance_witness_beyond_the_first_block():
    # seven levels with one planted relation k* = (0, 1, -4, 2, 0, 3, -2) at
    # shell 4; its prefixes (k_1..k_6) number 261910 (-k*) and 269530 (k*)
    # of 9^6, past the first block of 1e6 // 7 = 142857
    lam = np.random.default_rng(5).uniform(0.0, 1.0, 7)
    lam[6] = (lam[1] - 4 * lam[2] + 2 * lam[3] + 3 * lam[5]) / 2
    for bound in (3, 4):
        report = check_resonance_free(lam, bound)
        assert report.holds is (bound == 3)
    assert report.witness == (0, 1, -4, 2, 0, 3, -2)


def test_shell_vectors_are_cached_read_only():
    k = averaging._shell_vectors(2, 4, 0, 125)
    assert averaging._shell_vectors(2, 4, 0, 125) is k
    assert not k.flags.writeable
    with pytest.raises(ValueError):
        k[0, 0] = 0
    # the cached rows are the uncached enumeration's
    assert np.array_equal(k, averaging._shell_vectors.__wrapped__(2, 4, 0, 125))


@pytest.mark.parametrize("l, bound", [(3, 3), (4, 2), (5, 2)])
def test_resonance_verdicts_do_not_come_from_the_shell_cache(l, bound):
    # back to back on the same shells: a spectrum with a relation, one
    # without, and the first again; each verdict is the oracle's
    rng = np.random.default_rng(l)
    free = tuple(rng.uniform(0.0, 1.0, l))
    planted = free[:-1] + (2 * free[0] - free[1],)
    for lam in (planted, free, planted, free):
        assert check_resonance_free(lam, bound) == _resonance_oracle(lam, bound)
    assert not check_resonance_free(planted, bound).holds
    assert check_resonance_free(free, bound).holds


@pytest.mark.parametrize("lam, witness", [
    ((1e300, 2e300, 3e300), (1, -2, 1)),
    ((2.0**62, 2.0**62 + 2**11, 3.0), None),
    # 2 * 2^62 would wrap to -2^63 in int64, whose abs() is still -2^63
    ((2.0**62, 1.0, -9.0, -1.0), None),
])
def test_resonance_integer_spectra_past_int64_stay_exact(lam, witness):
    report = check_resonance_free(lam, 2)
    assert report == ResonanceReport(holds=witness is None, witness=witness, bound=2)
    assert report == _resonance_oracle(lam, 2)


def test_resonance_single_level_has_no_relation():
    for lam in ((0.0,), (3.0,), (-2.5,)):
        assert check_resonance_free(lam, 3) == ResonanceReport(True, None, 3)
