"""Large-ensemble limit laws and the Gibbs fixed point."""

import math

import numpy as np
import pytest

from zerophase.asymptotics import (convergence_scan, gibbs_fixed_point,
                                   kl_divergence, limit_F, limit_w)
from zerophase.errors import InputError

G3 = (0.2, 0.5, 0.3)
LAM3 = (0.0, 0.5, 1.3)


def test_limit_F_at_step_zero():
    # n=0 carries no cooling: the limit is -ln(total weight)/beta
    np.testing.assert_allclose(limit_F((1.0, 1.0), (0.0, 0.6931), 1.0, 0),
                               -math.log(2.0), rtol=1e-12)


def test_limit_w_normalized_and_positive_on_support():
    w = limit_w(G3, LAM3, 1.0, 3)
    np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-12)
    assert (w > 0).all()


def test_limit_w_approaches_gibbs_for_large_n():
    w = limit_w(G3, LAM3, 1.0, 10 ** 6)
    rho = np.exp(-np.asarray(LAM3))
    rho /= rho.sum()
    assert np.abs(w - rho).max() < 1e-5


def test_zero_weight_levels_drop_out():
    w = limit_w((0.5, 0.0, 0.5), LAM3, 1.0, 2)
    assert w[1] == 0.0
    np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-12)


@pytest.mark.parametrize("A", [0.5, 1.0, 7.0])
@pytest.mark.parametrize("n", [0, 1, 5, 50])
def test_gibbs_weights_are_evolution_invariant(A, n):
    """g proportional to the Gibbs weights reproduces them at any step."""
    beta = 1.0
    lam = np.asarray(LAM3)
    g = A * np.exp(-beta * lam)
    w = limit_w(g, LAM3, beta, n)
    rho = np.exp(-beta * lam)
    rho /= rho.sum()
    np.testing.assert_allclose(w, rho, atol=1e-12)


def test_fixed_point_support_asymmetry():
    """Restricted support clips the free energy but not the weights."""
    beta = 1.0
    point = gibbs_fixed_point(LAM3, beta, support=(0, 2))
    lam = np.asarray(LAM3)
    np.testing.assert_allclose(
        point.F_inf, -math.log(np.exp(-lam[[0, 2]]).sum()), rtol=1e-12)
    rho = np.exp(-lam)
    rho /= rho.sum()
    np.testing.assert_allclose(point.w_inf, rho, rtol=1e-12)


def test_fixed_point_support_validation():
    with pytest.raises(InputError):
        gibbs_fixed_point(LAM3, 1.0, support=())
    with pytest.raises(InputError):
        gibbs_fixed_point(LAM3, 1.0, support=(0, 5))


def test_convergence_scan_errors_shrink():
    report = convergence_scan(G3, LAM3, 1.0, 2, (50, 100, 200))
    assert (np.diff(report.errors) < 0).all()
    assert (np.diff(report.w_errors) < 0).all()
    # halving rate: error ~ C/M
    assert report.errors[2] < 0.6 * report.errors[1]


@pytest.mark.parametrize("sizes", [(m for m in (50, 100)), np.array([50, 100])],
                         ids=["generator", "ndarray"])
def test_convergence_scan_reads_the_sizes_once(sizes):
    want = convergence_scan(G3, LAM3, 1.0, 1, (50, 100))
    got = convergence_scan(G3, LAM3, 1.0, 1, sizes)
    assert got.M_values == (50, 100)
    assert np.array_equal(got.F_exact, want.F_exact)


def test_kl_divergence_properties():
    w = np.array([0.2, 0.3, 0.5])
    assert kl_divergence(w, w) == 0.0
    rho = np.array([0.4, 0.4, 0.2])
    assert kl_divergence(w, rho) > 0.0
    # w puts mass where rho has none
    assert kl_divergence(w, np.array([0.5, 0.5, 0.0])) == math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    lam = (0.0, bad, 1.3)
    for call in (lambda: limit_F(G3, lam, 1.0, 2),
                 lambda: limit_w(G3, lam, 1.0, 2),
                 lambda: gibbs_fixed_point(lam, 1.0),
                 lambda: convergence_scan(G3, lam, 1.0, 2, (50,))):
        with pytest.raises(InputError, match="spectrum values must be finite"):
            call()
    g = (0.2, bad, 0.3)
    for call in (lambda: limit_F(g, LAM3, 1.0, 2),
                 lambda: limit_w(g, LAM3, 1.0, 2),
                 lambda: convergence_scan(g, LAM3, 1.0, 2, (50,))):
        with pytest.raises(InputError, match="weights must be finite"):
            call()
