"""Kernel averaging, the shift axiom, and integer-relation checks."""

import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerophase.averaging import (AveragingKernel, Spectrum, WeightVector,
                                 certify_resonance_free, check_resonance_free,
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


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), beta=st.floats(0.1, 10.0),
       C=st.floats(-100.0, 100.0))
def test_shift_axiom_holds_to_rounding(data, n, beta, C):
    """avg(lam + C) = avg(lam) + C for both admissible kernels.

    Exponential: the exponents -beta (lam_i + C) carry two roundings each,
    logsumexp is 1-Lipschitz in them and adds a few roundings of its own,
    and the division by beta one more: a few eps of max|lam| + |C| + |avg|;
    the test allows 8.  Linear: the two dot products with the weights each
    err by at most n roundings of max|lam| + |C|; the test allows
    2 (n + 2) eps of that.  A rounding that underflows may also lose one
    subnormal spacing, which the division by beta (exponential) or by the
    weight total (linear) scales up when they are below 1: the _TINY
    terms.
    """
    lam = data.draw(hnp.arrays(float, n, elements=st.floats(-100.0, 100.0)))
    p = data.draw(hnp.arrays(float, n, elements=st.one_of(
        st.just(0.0), st.floats(1e-3, 1.0))))
    p[data.draw(st.integers(0, n - 1))] = data.draw(st.floats(1e-3, 1.0))
    scale = float(np.max(np.abs(lam))) + abs(C)
    exp_kernel = AveragingKernel.exponential(beta)
    base = financial_average(exp_kernel, lam, p)
    shifted = financial_average(exp_kernel, lam + C, p)
    bound = 8 * _EPS * (scale + abs(base)) + 8 * max(1.0, 1.0 / beta) * _TINY
    assert abs(shifted - (base + C)) <= bound
    lin_kernel = AveragingKernel.linear()
    base = financial_average(lin_kernel, lam, p)
    shifted = financial_average(lin_kernel, lam + C, p)
    k = 2 * (n + 2)
    bound = k * _EPS * scale + k * max(1.0, 1.0 / p.sum()) * _TINY
    assert abs(shifted - (base + C)) <= bound


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
