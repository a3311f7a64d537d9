"""Entropy fields: envelopes, ascent trajectories, price transport."""

import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from zerophase.entropy_flow import (EntropyField, FlowConfig, ascent_trajectory,
                                    calibrate_c, heat_semigroup_residual,
                                    hopf_lax, log_gaussian_smoothing,
                                    price_transport)
from zerophase.errors import InputError


def _parabola(n: int = 4001) -> EntropyField:
    spacing = 2.0 / (n - 1)
    return EntropyField.from_function(lambda x: -x * x, (-1.0,), (spacing,), (n,))


def test_field_validation():
    with pytest.raises(InputError):
        EntropyField((0.0,), (0.1,), np.zeros(2))  # fewer than 3 nodes
    with pytest.raises(InputError):
        EntropyField((0.0,), (-0.1,), np.zeros(5))
    with pytest.raises(InputError):
        EntropyField((0.0,), (0.1,), np.array([0.0, np.nan, 1.0]))


def test_max_envelope_closed_form_parabola():
    """H0 = -x^2 evolves to -x^2/(1+2t) under the max envelope."""
    field = _parabola()
    t = 0.5
    out = hopf_lax(field, t, mode="max")
    xs = field.axes()[0]
    exact = -xs * xs / (1.0 + 2.0 * t)
    assert np.abs(out.H - exact).max() < 1e-6


def test_max_envelope_dominates_initial_field():
    rng = np.random.default_rng(11)
    H = rng.standard_normal(257)
    field = EntropyField((-1.0,), (2.0 / 256,), H)
    out = hopf_lax(field, 0.2, mode="max")
    assert (out.H >= field.H - 1e-12).all()


def test_min_envelope_lowers_field():
    field = _parabola(801)
    out = hopf_lax(field, 0.3, mode="min")
    assert (out.H <= field.H + 1e-12).all()
    with pytest.raises(InputError):
        hopf_lax(field, 0.3, mode="sideways")


def test_semigroup_composition():
    field = _parabola()
    t, s = 0.3, 0.2
    once = hopf_lax(field, t + s, mode="max")
    twice = hopf_lax(hopf_lax(field, t, mode="max"), s, mode="max")
    assert np.abs(once.H - twice.H).max() < 1e-6


def test_heat_residual_drops_second_order():
    residuals = []
    for n in (201, 401, 801):
        spacing = 2.0 / (n - 1)
        field = EntropyField.from_function(
            lambda x: np.sin(2.0 * x) - 0.3 * x * x, (-1.0,), (spacing,), (n,))
        residuals.append(heat_semigroup_residual(field, 0.2))
    assert residuals[0] / residuals[1] > 3.5
    assert residuals[1] / residuals[2] > 3.5


def test_log_smoothing_constant_field():
    # constant H0 = c: the smoothed value is c + (k/2) ln(2 pi) exactly
    n = 2001
    field = EntropyField.from_function(lambda x: np.full_like(x, 1.7),
                                       (-8.0,), (16.0 / (n - 1),), (n,))
    out = log_gaussian_smoothing(field, 1.0)
    center = out.H[n // 2]
    np.testing.assert_allclose(center, 1.7 + 0.5 * math.log(2.0 * math.pi),
                               atol=1e-5)


def test_log_smoothing_commutes_with_shift():
    n = 801
    field = EntropyField.from_function(lambda x: np.sin(x), (-4.0,),
                                       (8.0 / (n - 1),), (n,))
    shifted = EntropyField(field.origin, field.spacing, field.H + 3.0)
    a = log_gaussian_smoothing(field, 0.4)
    b = log_gaussian_smoothing(shifted, 0.4)
    assert np.abs((a.H + 3.0) - b.H).max() < 1e-12


def test_ascent_climbs_a_bowl():
    n = 101
    field = EntropyField.from_function(
        lambda x, y: -(x * x + y * y), (-1.0, -1.0),
        (2.0 / (n - 1), 2.0 / (n - 1)), (n, n))
    config = FlowConfig(dt=5e-3, steps=400)
    traj = ascent_trajectory(field, config, (0.6, -0.4))
    assert not traj.exited
    # H must never decrease along the walk, and the walk must approach the top
    assert (np.diff(traj.H_values) >= -1e-12).all()
    assert np.linalg.norm(traj.points[-1]) < 0.05


def test_ascent_velocity_on_linear_field():
    n = 201
    field = EntropyField.from_function(lambda x, y: 2.0 * x + y,
                                       (-1.0, -1.0),
                                       (2.0 / (n - 1), 2.0 / (n - 1)), (n, n))
    config = FlowConfig(dt=1e-3, steps=1)
    traj = ascent_trajectory(field, config, (0.0, 0.0))
    step = (traj.points[1] - traj.points[0]) / 1e-3
    np.testing.assert_allclose(step, (2.0, 1.0), rtol=1e-9)


def test_ascent_exit_flag_on_clamped_boundary():
    n = 101
    field = EntropyField.from_function(lambda x: 5.0 * x, (-1.0,),
                                       (2.0 / (n - 1),), (n,))
    config = FlowConfig(dt=0.05, steps=200)
    traj = ascent_trajectory(field, config, (0.9,))
    assert traj.exited
    assert len(traj.points) < 201


def test_nonpositive_speed_rejected():
    field = _parabola(101)
    with pytest.raises(InputError):
        ascent_trajectory(field, FlowConfig(c_of_H=lambda h: 0.0), (0.1,))


def test_price_transport_two_routes_agree():
    n = 401
    spacing = 2.0 / (n - 1)
    field = EntropyField.from_function(lambda x: -x * x, (-1.0,), (spacing,), (n,))
    price = EntropyField.from_function(lambda x: np.sin(x), (-1.0,), (spacing,), (n,))
    config = FlowConfig(dt=1e-3, steps=200)
    result = price_transport(field, config, (price,), (0.5,))
    diff = np.abs(result.ode_route[:, 0] - result.chain_route[:, 0]).max()
    assert diff < 1e-4


def test_price_transport_requires_shared_grid():
    field = _parabola(101)
    other = _parabola(201)
    with pytest.raises(InputError):
        price_transport(field, FlowConfig(), (other,), (0.0,))


def test_calibration_round_trip():
    """Recover c from a drift synthesized by the transport law itself."""
    n = 1001
    spacing = 2.0 / (n - 1)
    field = EntropyField.from_function(lambda x: -x * x, (-1.0,), (spacing,), (n,))
    price = EntropyField.from_function(lambda x: np.sin(x), (-1.0,), (spacing,), (n,))
    x = (0.4,)
    c_true = 2.0
    # model drift at x: c * grad(lambda) . grad(H); on these fields
    # grad H = -2x exactly at interior nodes of the centered stencil
    grad_h = -2.0 * x[0]
    grad_lam = math.cos(x[0])
    drift = c_true * grad_lam * grad_h
    c = calibrate_c(drift, field, price, x)
    np.testing.assert_allclose(c, c_true, rtol=1e-6)


def test_calibration_rejects_insensitive_point():
    n = 101
    spacing = 2.0 / (n - 1)
    field = EntropyField.from_function(lambda x: np.zeros_like(x), (-1.0,),
                                       (spacing,), (n,))
    price = EntropyField.from_function(lambda x: np.sin(x), (-1.0,), (spacing,), (n,))
    with pytest.raises(InputError):
        calibrate_c(0.1, field, price, (0.0,))


# ---------------------------------------------------------------------------
# exhaustive pairwise oracle for the per-axis envelope scans


def _pairwise_sq(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    # squared distances between row sets, shape (len(xa), len(xb))
    diff = xa[:, None, :] - xb[None, :, :]
    return np.sum(diff * diff, axis=-1)


def _oracle(field0: EntropyField, t: float) -> dict:
    """All four transforms by one scan over every pair of grid nodes."""
    nodes = field0.nodes()
    vals = field0.H.ravel()
    k = field0.ndim
    log_hk = float(np.sum(np.log(field0.spacing)))
    d2 = _pairwise_sq(nodes, nodes)
    out = {
        "max": np.max(vals[None, :] - d2 / (2.0 * t), axis=1),
        "min": np.min(vals[None, :] + d2 / (2.0 * t), axis=1),
        "smooth": logsumexp(vals[None, :] - d2 / (2.0 * t), axis=1)
        + (log_hk - 0.5 * k * math.log(t)),
    }
    out = {key: v.reshape(field0.shape) for key, v in out.items()}
    w = np.exp(vals[None, :] - d2 / (2.0 * t) + log_hk)
    u = np.sum(w, axis=1).reshape(field0.shape)
    ut = np.sum(w * (d2 / (2.0 * t * t) - k / (2.0 * t)), axis=1
                ).reshape(field0.shape)
    lap = np.zeros_like(u)
    for d in range(k):
        h = field0.spacing[d]
        mid = [slice(None)] * k
        lo, hi = list(mid), list(mid)
        mid[d], lo[d], hi[d] = slice(1, -1), slice(0, -2), slice(2, None)
        lap[tuple(mid)] += (u[tuple(hi)] - 2.0 * u[tuple(mid)]
                            + u[tuple(lo)]) / (h * h)
    interior = (slice(1, -1),) * k
    out["heat"] = float(np.max(np.abs(ut[interior] - 0.5 * lap[interior])))
    # the residual is a difference of terms of size u/h^2, so two summation
    # orders may differ by a few ulps of that size
    out["heat_noise"] = 8.0 * np.finfo(float).eps * float(u.max()) * sum(
        h ** -2 for h in field0.spacing)
    return out


def _transforms(field0: EntropyField, t: float) -> dict:
    return {"max": hopf_lax(field0, t, "max").H,
            "min": hopf_lax(field0, t, "min").H,
            "smooth": log_gaussian_smoothing(field0, t).H,
            "heat": heat_semigroup_residual(field0, t)}


def test_multi_chunk_scan_equals_pairwise_oracle():
    # 2100 nodes: the scan splits its output nodes into two chunks
    H = np.random.default_rng(5).uniform(-5.0, 5.0, 2100)
    field0 = EntropyField((-1.0,), (1e-3,), H)
    want = _oracle(field0, 0.1)
    got = _transforms(field0, 0.1)
    for key in ("max", "min", "smooth"):
        assert np.array_equal(got[key], want[key]), key
    assert got["heat"] == want["heat"]


_values = st.floats(-5.0, 5.0)
_times = st.floats(1e-3, 10.0)
_spacings = st.floats(0.05, 1.0)
_origins = st.floats(-3.0, 3.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(3, 300), t=_times)
def test_per_axis_scans_equal_pairwise_oracle_1d(data, n, t):
    H = data.draw(hnp.arrays(float, n, elements=_values))
    field0 = EntropyField((data.draw(_origins),), (data.draw(_spacings),), H)
    want = _oracle(field0, t)
    got = _transforms(field0, t)
    for key in ("max", "min", "smooth"):
        assert np.array_equal(got[key], want[key]), key
    assert got["heat"] == want["heat"]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(3, 25), st.integers(3, 25)),
       t=_times)
def test_per_axis_scans_match_pairwise_oracle_2d(data, shape, t):
    H = data.draw(hnp.arrays(float, shape, elements=_values))
    origin = (data.draw(_origins), data.draw(_origins))
    spacing = (data.draw(_spacings), data.draw(_spacings))
    field0 = EntropyField(origin, spacing, H)
    want = _oracle(field0, t)
    got = _transforms(field0, t)
    for key in ("max", "min", "smooth"):
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12,
                                   err_msg=key)
    np.testing.assert_allclose(got["heat"], want["heat"], rtol=1e-9,
                               atol=want["heat_noise"])
