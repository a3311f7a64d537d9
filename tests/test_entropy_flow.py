"""Entropy fields: envelopes, ascent trajectories, price transport."""

import copy
import dataclasses
import hashlib
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator
from scipy.special import logsumexp

from zerophase import entropy_flow
from zerophase._numeric import check_real, linear_sampler
from zerophase.entropy_flow import (_ENVELOPE_MIN_NODES, EntropyField, FlowConfig,
                                    _axis_envelope, _gradient_arrays, _sampler,
                                    ascent_trajectory, calibrate_c,
                                    heat_semigroup_residual, hopf_lax,
                                    log_gaussian_smoothing, price_transport)
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
    # node coordinates that collapse or overflow in float
    with pytest.raises(InputError, match="node coordinates of each axis"):
        EntropyField((1e17,), (1.0,), np.zeros(5))
    with pytest.raises(InputError, match="node coordinates of each axis"):
        EntropyField((0.0, 1e308), (1.0, 1e307), np.zeros((3, 50)))


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


_LD = np.longdouble
_EPS = np.finfo(float).eps


def _along(mats: list, V: np.ndarray) -> np.ndarray:
    """V with mats[d] (output node, node) applied along each axis d."""
    for d, M in enumerate(mats):
        V = np.moveaxis(np.tensordot(M, V, axes=(1, d)), 0, d)
    return V


def _smoothing_oracle(field0: EntropyField, t: float) -> tuple:
    """The smoothing in long double, and a bound on the float route's error.

    The oracle sums every node pair in long double (a 64-bit mantissa on
    x86), on the exact uniform grid: the kernel depends on the nodes only through
    their differences, which are (i - j) spacing there.  (Differences of
    nodes origin + spacing k rounded to long double would add up to
    2^-64 |x| / spacing relative error to them.)  The Gaussian factors
    over the axes, so the sums are taken one axis at a time, which is the
    same sum in exact arithmetic.

    The bound, per output node i, in units of eps, with u = eps/2, from
    first-order rounding of each step of log_gaussian_smoothing; w_j are
    the terms of node i's sum S_i and <.> their w-weighted mean:
      - d_j = H_j - max H rounds by u |d_j|, exp by at most 2 eps, so
        E_j = e^{d_j} is off by <|d|>/2 + 2 eps relative;
      - per axis, the kernel at q = (m h)^2/(2t) rounds its argument by
        2 eps q and exp by 2 eps, and the product with the sum so far by
        u: 2 <q> + 2.5 for the k axes together (q summed over the axes);
      - per axis, a sum of nonnegative terms in blocks of `width` nodes,
        `blocks` of them, is off by at most (width + blocks - 2) u;
      - ln S rounds by 2 eps |ln S|, adding max H by u |ln S + max H|,
        the constant ln h^k - (k/2) ln t carries 3 eps (sum |ln h| +
        (k/2) |ln t|), and adding it rounds by u |out|;
      - 1 more for the oracle's own rounding.
    The relative errors of S are weighted means of those of its positive
    terms, so they add up to first order, and each is an absolute error
    of ln S.
    """
    k = field0.ndim
    H = field0.H
    top = float(np.max(H))
    d = H.astype(_LD) - _LD(top)
    E = np.exp(d)
    tt = _LD(t)
    kernels, moments = [], []
    for n, h in zip(field0.shape, field0.spacing):
        diff = np.subtract.outer(np.arange(n), np.arange(n)).astype(_LD) * _LD(h)
        q = diff * diff / (2 * tt)
        kernels.append(np.exp(-q))
        moments.append(np.exp(-q) * q)
    S = _along(kernels, E)
    mean_d = _along(kernels, E * np.abs(d)) / S
    mean_q = sum(_along(kernels[:a] + [moments[a]] + kernels[a + 1:], E)
                 for a in range(k)) / S
    log_h = [math.log(h) for h in field0.spacing]
    lnS = np.log(S)
    smooth = lnS + _LD(top) + (sum(np.log(_LD(h)) for h in field0.spacing)
                               - _LD(0.5 * k) * np.log(tt))
    sums = 0.0
    for n in field0.shape:
        blocks = -(-n // entropy_flow._SUM_BLOCK)
        sums += (-(-n // blocks) + blocks - 2) / 2
    bound = (mean_d / 2 + 2 + 2 * mean_q + 2.5 * k + sums + 2 * np.abs(lnS)
             + np.abs(lnS + _LD(top)) / 2 + 3 * (sum(map(abs, log_h))
                                                 + 0.5 * k * abs(math.log(t)))
             + np.abs(smooth) / 2 + 1)
    return smooth, (_EPS * bound).astype(float)


def _assert_smoothing_within_bound(got: np.ndarray, field0: EntropyField,
                                   t: float) -> None:
    want, bound = _smoothing_oracle(field0, t)
    err = np.abs(got.astype(_LD) - want).astype(float)
    worst = np.unravel_index(np.argmax(err - bound), err.shape)
    assert np.all(err <= bound), (worst, err[worst], bound[worst])


def _transforms(field0: EntropyField, t: float) -> dict:
    return {"max": hopf_lax(field0, t, "max").H,
            "min": hopf_lax(field0, t, "min").H,
            "smooth": log_gaussian_smoothing(field0, t).H,
            "heat": heat_semigroup_residual(field0, t)}


def test_multi_chunk_scan_equals_pairwise_oracle():
    """The envelopes and the heat residual equal the float pairwise oracle
    bit for bit; the smoothing is within the bound of _smoothing_oracle of
    the long-double oracle: eps times <|d|>/2 + 2 <q> + 2 + 2.5 k + the
    block sums' (width + blocks - 2)/2 per axis + 2 |ln S| + |ln S +
    max H|/2 + 3 (sum |ln h| + (k/2) |ln t|) + |out|/2 + 1."""
    # 2100 nodes: the scan splits its output nodes into blocks of
    # _SCAN_BLOCK // 2100 rows, the last of them shorter (at 2**16, 67
    # blocks of 31 rows and one of 23)
    rows = entropy_flow._SCAN_BLOCK // 2100
    assert 2 <= rows < 2100 and 2100 % rows
    H = np.random.default_rng(5).uniform(-5.0, 5.0, 2100)
    field0 = EntropyField((-1.0,), (1e-3,), H)
    want = _oracle(field0, 0.1)
    got = _transforms(field0, 0.1)
    for key in ("max", "min"):
        assert np.array_equal(got[key], want[key]), key
    assert got["heat"] == want["heat"]
    _assert_smoothing_within_bound(got["smooth"], field0, 0.1)


def _count_splits(monkeypatch) -> list:
    """Record the block count of every scan split between two threads."""
    splits = []
    split = entropy_flow._split

    def recorded(scan, starts):
        splits.append(len(starts))
        return split(scan, starts)

    monkeypatch.setattr(entropy_flow, "_split", recorded)
    return splits


# shape -> (terms of one output row, output rows) of the axis split below:
# the 1-d axis, and the 2-d heat residual's second axis, which scans both
# stacked components, u and u_t
_SPLIT_AXES = {(1000,): (1000, 1000), (150, 120): (2 * 150 * 120, 120)}


@pytest.mark.parametrize("shape", list(_SPLIT_AXES))
def test_scans_do_not_depend_on_the_block_size(monkeypatch, shape):
    """The smallest blocks (two output rows), one block for a whole axis,
    and blocks that split the axis below in an odd and an even count, on
    one thread and on two, give the envelope and heat-residual bits of the
    default blocks on one thread, which split every axis here.  The
    smoothing, which scans no blocks, stays within the bound of
    _smoothing_oracle of the long-double oracle (see
    test_multi_chunk_scan_equals_pairwise_oracle)."""
    H = np.random.default_rng(11).uniform(-5.0, 5.0, shape)
    field0 = EntropyField((-0.4,) * H.ndim, (0.03,) * H.ndim, H)
    monkeypatch.setattr(entropy_flow, "_SCAN_THREADS", 1)
    want = _transforms(field0, 0.05)
    _assert_smoothing_within_bound(want["smooth"], field0, 0.05)
    terms, nodes = _SPLIT_AXES[shape]
    blocks = [1, 10 ** 9]
    for count in (9, 10):
        rows = -(-nodes // count)
        assert -(-nodes // rows) == count
        blocks.append(rows * terms)
    for threads in (1, 2):
        monkeypatch.setattr(entropy_flow, "_SCAN_THREADS", threads)
        splits = _count_splits(monkeypatch)
        for block in blocks:
            monkeypatch.setattr(entropy_flow, "_SCAN_BLOCK", block)
            got = _transforms(field0, 0.05)
            for key in ("max", "min"):
                assert np.array_equal(got[key], want[key]), (threads, block, key)
            assert got["heat"] == want["heat"], (threads, block)
            _assert_smoothing_within_bound(got["smooth"], field0, 0.05)
        if threads == 1:
            assert splits == []
        else:
            # the axis above splits its odd and its even block count
            assert {9, 10} <= set(splits)


def _bench_field_1d(seed: int) -> EntropyField:
    # the 4001-node 1-d field of the benchmark's entropy ops
    a = np.random.default_rng(seed).uniform(-0.3, 0.3, 5)
    return EntropyField.from_function(
        lambda x: (-0.5 * x * x + a[0] * np.sin(2.0 * x + a[1])
                   + a[2] * np.cos(3.0 * x) + a[3] * x),
        (-1.0,), (2.0 / 4000,), (4001,))


def test_two_threads_change_no_bit_of_the_bench_field(monkeypatch):
    field0 = _bench_field_1d(0)
    runs = []
    for threads in (1, 2):
        monkeypatch.setattr(entropy_flow, "_SCAN_THREADS", threads)
        splits = _count_splits(monkeypatch)
        runs.append(heat_semigroup_residual(field0, 0.1))
        # 251 blocks of 16 output rows each
        assert splits == ([] if threads == 1 else [251])
    assert runs[0] == runs[1]


def _scan_threads_alive() -> int:
    return [t.name for t in threading.enumerate()].count("zerophase-scan")


def _record_thread_starts(monkeypatch) -> list:
    """Record the name of every thread started from here on."""
    names = []

    class Recorded(threading.Thread):
        def start(self):
            names.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return names


def test_one_scan_thread_starts_no_thread(monkeypatch):
    monkeypatch.setattr(entropy_flow, "_SCAN_THREADS", 1)
    started = _record_thread_starts(monkeypatch)
    before = threading.active_count()
    heat_semigroup_residual(_bench_field_1d(1), 0.1)
    assert "zerophase-scan" not in started
    assert threading.active_count() == before


def test_split_scan_leaves_no_thread_alive(monkeypatch):
    monkeypatch.setattr(entropy_flow, "_SCAN_THREADS", 2)
    started = _record_thread_starts(monkeypatch)
    heat_semigroup_residual(_bench_field_1d(1), 0.1)
    assert started == ["zerophase-scan"]
    assert _scan_threads_alive() == 0


def _run_python(code: str) -> None:
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def test_import_loads_no_executor_and_starts_no_thread():
    _run_python(
        "import sys, threading\n"
        "import zerophase.cli\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert 'queue' not in sys.modules\n"
        "assert threading.active_count() == 1\n")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no affinity mask on this platform")
def test_one_cpu_starts_no_thread():
    _run_python(
        "import os, threading\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "import numpy as np\n"
        "from zerophase import entropy_flow as ef\n"
        "assert ef._SCAN_THREADS == 1\n"
        "f = ef.EntropyField((-1.0,), (5e-4,), np.linspace(0.0, 1.0, 4001))\n"
        "ef.heat_semigroup_residual(f, 0.1)\n"
        "assert threading.active_count() == 1\n")


def test_concurrent_callers_run_at_most_one_scan_thread():
    """Four callers split their scans at once, with the interpreter
    switching threads every 10 us: at most one scan thread is alive at a
    time, each caller gets the one-thread bits, and no thread is left."""
    _run_python("""
import sys, threading
import numpy as np
from zerophase import entropy_flow as ef
runs = {"live": 0, "peak": 0, "started": 0}
count = threading.Lock()
class Counted(threading.Thread):
    def run(self):
        with count:
            runs["live"] += 1
            runs["started"] += 1
            runs["peak"] = max(runs["peak"], runs["live"])
        try:
            super().run()
        finally:
            with count:
                runs["live"] -= 1
ef._SCAN_THREADS = 1
fields = [ef.EntropyField((-1.0,), (5e-4,),
                          np.random.default_rng(s).uniform(-1.0, 1.0, 4001))
          for s in range(4)]
want = [ef.heat_semigroup_residual(f, 0.1) for f in fields]
assert threading.active_count() == 1
ef._SCAN_THREADS = 2
got = [None] * 4
def call(i):
    got[i] = ef.heat_semigroup_residual(fields[i], 0.1)
callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
threading.Thread = Counted
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-5)
try:
    for t in callers:
        t.start()
    for t in callers:
        t.join(60)
finally:
    sys.setswitchinterval(interval)
assert not any(t.is_alive() for t in callers)
assert got == want
assert runs["started"] >= 1 and runs["peak"] == 1
assert threading.active_count() == 1
""")


def _scan_in_child(field0: EntropyField, want: float, held: bool) -> None:
    assert entropy_flow._split_lock.locked() == held
    started = _record_thread_starts(pytest.MonkeyPatch())
    assert heat_semigroup_residual(field0, 0.1) == want
    # the 1-d heat residual is one scan of 251 blocks: it splits unless the
    # lock came held
    assert started == ([] if held else ["zerophase-scan"])
    assert threading.active_count() == 1


def _fork_and_scan(field0: EntropyField, want: float, held: bool) -> None:
    """The heat residual of field0 in a forked child, which must get want
    within 60 s."""
    child = multiprocessing.get_context("fork").Process(
        target=_scan_in_child, args=(field0, want, held))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung in its split scan")
    assert child.exitcode == 0


_needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="no fork on this platform")


@_needs_fork
def test_forked_child_starts_its_own_worker(monkeypatch):
    """A child forked after its parent split a scan inherits no scan
    thread and a free lock, and splits its own scans."""
    monkeypatch.setattr(entropy_flow, "_SCAN_THREADS", 2)
    field0 = _bench_field_1d(2)
    want = heat_semigroup_residual(field0, 0.1)
    assert _scan_threads_alive() == 0
    _fork_and_scan(field0, want, held=False)


@_needs_fork
def test_fork_while_the_split_lock_is_held_never_hangs(monkeypatch):
    """A child forked mid-split inherits the lock held, and no thread to
    release it: its scans run serially, with the same bits."""
    monkeypatch.setattr(entropy_flow, "_SCAN_THREADS", 2)
    field0 = _bench_field_1d(3)
    want = heat_semigroup_residual(field0, 0.1)
    assert entropy_flow._split_lock.acquire(blocking=False)
    try:
        _fork_and_scan(field0, want, held=True)
    finally:
        entropy_flow._split_lock.release()


def _two_halves(monkeypatch):
    """A scan of 20 two-row blocks, split 10/10, as (V, x, xi)."""
    monkeypatch.setattr(entropy_flow, "_SCAN_THREADS", 2)
    monkeypatch.setattr(entropy_flow, "_SCAN_BLOCK", 200)
    x = np.linspace(0.0, 1.0, 100)
    return np.zeros(100), x, x[:40].copy()


def test_split_scan_keeps_the_callers_errstate(monkeypatch):
    V, x, xi = _two_halves(monkeypatch)
    xi[20:] = 1e5  # only the worker's half overflows

    def reduce(v, sq):
        return np.sum(v + np.multiply(sq, 1e300, out=sq), axis=-1)

    for threads in (1, 2):
        monkeypatch.setattr(entropy_flow, "_SCAN_THREADS", threads)
        splits = _count_splits(monkeypatch)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            entropy_flow._axis_scan(V, x, -1, reduce, xi)
        assert splits == ([] if threads == 1 else [20])


def test_split_scan_raises_the_first_error_after_both_halves(monkeypatch):
    V, x, xi = _two_halves(monkeypatch)
    caller = threading.get_ident()
    for failing in ("caller", "worker"):
        finished = []

        def reduce(v, sq):
            mine = "caller" if threading.get_ident() == caller else "worker"
            if mine == failing:
                raise ValueError(mine)
            time.sleep(0.005)
            finished.append(mine)
            return np.sum(v + sq, axis=-1)

        with pytest.raises(ValueError, match=failing):
            entropy_flow._axis_scan(V, x, -1, reduce, xi)
        if failing == "caller":
            # the call returned only after the worker's 10 blocks
            assert finished == ["worker"] * 10
        else:
            assert finished.count("caller") == 10
        assert _scan_threads_alive() == 0
        # the lock is free again: the next scan splits
        splits = _count_splits(monkeypatch)
        threads = set()

        def record_thread(v, sq):
            threads.add(threading.get_ident())
            return np.sum(v + sq, axis=-1)

        entropy_flow._axis_scan(V, x, -1, record_thread, xi)
        assert splits == [20] and len(threads) == 2


_values = st.floats(-5.0, 5.0)
_times = st.floats(1e-3, 10.0)
_spacings = st.floats(0.05, 1.0)
_origins = st.floats(-3.0, 3.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(3, 300), t=_times)
def test_per_axis_scans_equal_pairwise_oracle_1d(data, n, t):
    """The envelopes and the heat residual equal the float pairwise oracle
    bit for bit; the smoothing is within the bound of _smoothing_oracle of
    the long-double oracle (see
    test_multi_chunk_scan_equals_pairwise_oracle)."""
    H = data.draw(hnp.arrays(float, n, elements=_values))
    field0 = EntropyField((data.draw(_origins),), (data.draw(_spacings),), H)
    want = _oracle(field0, t)
    got = _transforms(field0, t)
    for key in ("max", "min"):
        assert np.array_equal(got[key], want[key]), key
    assert got["heat"] == want["heat"]
    _assert_smoothing_within_bound(got["smooth"], field0, t)


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


def _pairwise_smoothing(field0: EntropyField, t: float) -> np.ndarray:
    """The smoothing by the pairwise log-domain scan of every axis."""
    reduce = entropy_flow._smoothing_reduce(t)
    H = field0.H
    for d, x in enumerate(field0.axes()):
        H = entropy_flow._axis_scan(H, x, d - field0.ndim, reduce)
    return H + (float(np.sum(np.log(field0.spacing)))
                - 0.5 * field0.ndim * math.log(t))


def _range_fields() -> list:
    # fields spanning 900 below their top, at a t so small that the linear-
    # domain sums of the deepest nodes underflow to 0
    line = EntropyField((0.0,), (0.01,), np.linspace(0.0, -900.0, 301))
    plane = EntropyField.from_function(lambda x, y: -450.0 * (x + y),
                                       (0.0, 0.0), (0.05, 0.05), (21, 21))
    return [line, plane]


@pytest.mark.parametrize("field0", _range_fields(), ids=["1d", "2d"])
def test_smoothing_leaves_the_nodes_out_of_range_to_the_scan(field0):
    """Nodes more than _SMOOTHING_RANGE below max H get the pairwise scan's
    bits: in 1-d those nodes alone, and the others stay within the bound of
    the long-double oracle; in 2-d the whole field.  Every output is
    finite, and no warning is raised, though the Toeplitz sums of the
    deepest nodes are 0."""
    t = 1e-4
    H = field0.H
    below = H - np.max(H) < -entropy_flow._SMOOTHING_RANGE
    assert below.any() and not below.all()
    sums = entropy_flow._gaussian_sums(np.exp(H - np.max(H)), field0.spacing, t)
    assert np.any(sums[below] == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_gaussian_smoothing(field0, t).H
        scan = _pairwise_smoothing(field0, t)
    assert np.all(np.isfinite(got))
    if field0.ndim == 1:
        assert np.array_equal(got[below], scan[below])
        want, bound = _smoothing_oracle(field0, t)
        err = np.abs(got.astype(_LD) - want).astype(float)
        assert np.all(err[~below] <= bound[~below])
    else:
        assert np.array_equal(got, scan)


@pytest.mark.parametrize("n, h", [(3, 8e307), (257, 7e305)])
def test_smoothing_takes_overflowing_differences_as_zero_kernel(n, h):
    """Node differences whose square overflows (3 nodes), or that overflow
    themselves in the zero-padded last block (257 nodes, 257 h past the
    float range), give the kernel an exact 0 and raise no warning."""
    field0 = EntropyField((-(n // 2) * h,), (h,), np.zeros(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_gaussian_smoothing(field0, 1.0).H
    # every node keeps its own term alone
    np.testing.assert_allclose(got, math.log(h), rtol=1e-15)


# numpy's major.minor version, and the SIMD targets it dispatched to, when
# the digests below were taken: np.exp and np.log have one implementation
# per target, each with its own roundings
_FROZEN_UNDER = ("2.4", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"))
_FROZEN_HEAT = {"1d": 5.35447815641632e-07, "2d": 0.00217559167949144}
_FROZEN_SMOOTHING_SHA256 = {
    "1d": "ee619a3642b2249b38371acf9b80f97b93a031251257eba2c04b9cda9f5ec5ee",
    "2d": "1e3c5ef4db9eb122dde9279eb14bb9dcef1245954a2055eec2890e332b12d476"}


def _numpy_build() -> tuple:
    version = ".".join(np.__version__.split(".")[:2])
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:
        return version, None
    return version, tuple(t for t in __cpu_dispatch__ if __cpu_features__.get(t))


def test_seed0_bench_bits_are_frozen(bench_workloads):
    """On the benchmark's seed-0 fields at t = 0.1 the heat residuals keep
    the floats of the pairwise scans, and the smoothing the bytes of its
    Toeplitz sums; the sums take no BLAS, so neither the CPU's BLAS kernel
    nor the thread count moves them."""
    if _numpy_build() != _FROZEN_UNDER:
        pytest.skip(f"digests taken under numpy {_FROZEN_UNDER[0]} with SIMD "
                    f"targets {_FROZEN_UNDER[1]}, here {_numpy_build()}")
    fields = bench_workloads.entropy_inputs(0)["fields"]
    t = bench_workloads.ENVELOPE_T
    for dim, field0 in fields.items():
        assert heat_semigroup_residual(field0, t) == _FROZEN_HEAT[dim]
        H = log_gaussian_smoothing(field0, t).H
        assert hashlib.sha256(H.tobytes()).hexdigest() == \
            _FROZEN_SMOOTHING_SHA256[dim], dim


# the envelope path: long axes, and the per-axis primitive at any size


def _tied_field(kind: str, n: int, data) -> np.ndarray:
    # fields whose terms tie exactly: on the dyadic grids drawn with them,
    # nodes symmetric about a node are at exactly equal distances
    if kind == "constant":
        return np.full(n, data.draw(_values))
    if kind == "integer":
        return data.draw(hnp.arrays(float, n, elements=st.integers(-3, 3)))
    if kind == "symmetric":
        half = data.draw(hnp.arrays(float, n // 2 + 1, elements=_values))
        return np.concatenate((half[::-1], half[1:]))[:n]
    return data.draw(hnp.arrays(float, n, elements=_values))


_kinds = st.sampled_from(["random", "constant", "integer", "symmetric"])
_dyadic = st.sampled_from([2.0 ** -k for k in range(1, 8)])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), t=_times, kind=_kinds,
       n=st.one_of(st.integers(3, 60),
                   st.integers(_ENVELOPE_MIN_NODES, _ENVELOPE_MIN_NODES + 300)))
def test_envelope_path_equals_pairwise_oracle_1d(data, n, t, kind):
    # hopf_lax takes the envelope from _ENVELOPE_MIN_NODES nodes up; the
    # per-axis envelope is called directly below that too
    H = _tied_field(kind, n, data)
    spacing = data.draw(st.one_of(_spacings, _dyadic))
    origin = data.draw(st.one_of(_origins, st.just(-(n // 2) * spacing)))
    field0 = EntropyField((origin,), (spacing,), H)
    want = _oracle(field0, t)
    for mode in ("max", "min"):
        assert np.array_equal(hopf_lax(field0, t, mode).H, want[mode]), mode
        got = _axis_envelope(H, field0.axes()[0], t, mode)
        assert np.array_equal(got, want[mode]), mode


def test_far_origin_leaves_every_node_to_the_scan(monkeypatch):
    """At |x| ~ 1e6 and t = 0.1 the lines' intercepts x^2/(2t) are ~5e12,
    so the rounding margin is ~0.5.  On a constant field every line is a
    vertex and a neighbouring node's line trails by h^2/(2t) = 5e-6 at a
    node: no node can be certified, and each must come from the exhaustive
    scan.  On a random field the certified nodes and the scanned ones
    together still equal the oracle."""
    scanned = []
    scan = entropy_flow._axis_scan

    def recorded(V, x, axis, reduce, xi=None):
        scanned.append(x.size if xi is None else xi.size)
        return scan(V, x, axis, reduce, xi)

    monkeypatch.setattr(entropy_flow, "_axis_scan", recorded)
    n = _ENVELOPE_MIN_NODES + 44
    for H in (np.random.default_rng(3).uniform(-5.0, 5.0, n), np.full(n, 1.5)):
        scanned.clear()
        field0 = EntropyField((1e6,), (1e-3,), H)
        want = _oracle(field0, 0.1)
        for mode in ("max", "min"):
            assert np.array_equal(hopf_lax(field0, 0.1, mode).H, want[mode])
    assert scanned == [n, n]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), ndim=st.integers(1, 2), t=_times,
       C=st.floats(-50.0, 50.0))
def test_envelope_order_and_constant_shift(data, ndim, t, C):
    """min <= H0 <= max exactly, and adding C to H0 adds C to each output.

    The order is exact: every scan includes the node's own term, and the
    kernel vanishes there.  The shift moves each output by the rounding of
    its terms: the envelopes round each term twice per axis, so they stay
    within 4 eps of max|H0| + |C| + max|H|; the smoothing adds the roundings
    of two logsumexp passes and the constant, observed up to about 6 eps,
    and the test allows 16.
    """
    shape = tuple(data.draw(st.integers(3, 60 if ndim == 1 else 15))
                  for _ in range(ndim))
    H0 = data.draw(hnp.arrays(float, shape, elements=_values))
    origin = tuple(data.draw(_origins) for _ in range(ndim))
    spacing = tuple(data.draw(_spacings) for _ in range(ndim))
    field0 = EntropyField(origin, spacing, H0)
    moved = EntropyField(origin, spacing, H0 + C)
    hi = hopf_lax(field0, t, mode="max").H
    lo = hopf_lax(field0, t, mode="min").H
    assert np.all(lo <= H0) and np.all(H0 <= hi)
    for H, H_moved, ulps in (
            (hi, hopf_lax(moved, t, mode="max").H, 4),
            (lo, hopf_lax(moved, t, mode="min").H, 4),
            (log_gaussian_smoothing(field0, t).H,
             log_gaussian_smoothing(moved, t).H, 16)):
        bound = ulps * _EPS * (np.max(np.abs(H0)) + abs(C) + np.max(np.abs(H)))
        assert np.max(np.abs(H_moved - (H + C))) <= bound


# ---------------------------------------------------------------------------
# per-point oracle for ascent, price transport and calibration: one
# interpolator per component, read one point at a time


def _interpolators(field: EntropyField, boundary: str):
    def interp(values):
        return RegularGridInterpolator(field.axes(), values, method="linear",
                                       bounds_error=False, fill_value=None)
    return interp(field.H), [interp(g) for g in
                             _gradient_arrays(field, boundary)]


def _point_gradient(igs, x) -> np.ndarray:
    return np.array([float(gi(x)[0]) for gi in igs])


def _transport_oracle(field, config, price_fields, x0):
    """(points, H values, exited, ODE route, chain route), step by step."""
    ih, igs = _interpolators(field, config.boundary)
    lo, hi = field.box()
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    pts, hv, exited = [x.copy()], [float(ih(x)[0])], False
    for _ in range(config.steps):
        c = float(config.c_of_H(hv[-1]))
        x_new = x + config.dt * c * _point_gradient(igs, x)
        if config.boundary == "periodic":
            x_new = lo + np.mod(x_new - lo, hi - lo)
        elif np.any(x_new < lo) or np.any(x_new > hi):
            exited = True
            break
        x = x_new
        pts.append(x.copy())
        hv.append(float(ih(x)[0]))
    pts = np.array(pts)
    price_interp = [_interpolators(pf, config.boundary) for pf in price_fields]
    chain = np.empty((len(pts), len(price_fields)))
    for j, (pih, _) in enumerate(price_interp):
        chain[:, j] = pih(pts)
    ode = np.empty_like(chain)
    ode[0] = chain[0]
    for i in range(len(pts) - 1):
        x = pts[i]
        grad_h = _point_gradient(igs, x)
        c = float(config.c_of_H(float(ih(x)[0])))
        for j, (_, pigs) in enumerate(price_interp):
            grad_l = _point_gradient(pigs, x)
            ode[i + 1, j] = ode[i, j] + config.dt * c * float(grad_l @ grad_h)
    return pts, np.array(hv), exited, ode, chain


def _calibration_oracle(drift, field, price_field, x, boundary):
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    grad_h = _point_gradient(_interpolators(field, boundary)[1], xv)
    grad_l = _point_gradient(_interpolators(price_field, boundary)[1], xv)
    return float(drift) / float(grad_l @ grad_h)


def _speed(h: float) -> float:
    return 1.5 + math.sin(h)


def _transport_case(ndim: int):
    """An entropy field, two price fields, and a start, on [-1, 1]^ndim."""
    n = 101 if ndim == 1 else 41
    origin, spacing, shape = (-1.0,) * ndim, (2.0 / (n - 1),) * ndim, (n,) * ndim
    if ndim == 1:
        fns = (lambda x: np.sin(np.pi * x) + 0.1 * x,
               lambda x: np.cos(2.0 * x) + x,
               lambda x: x ** 3)
        x0 = (-0.9,)
    else:
        fns = (lambda x, y: np.sin(np.pi * x) * np.cos(0.5 * y) + 0.2 * y,
               lambda x, y: 0.7 * x + y * y,
               lambda x, y: np.sin(1.3 * x) * y)
        x0 = (-0.9, 0.3)
    field, *prices = (EntropyField.from_function(f, origin, spacing, shape)
                      for f in fns)
    return field, prices, x0


def _check_transport(ndim, config, price_fields=None, x0=None):
    field, prices, start = _transport_case(ndim)
    price_fields = prices if price_fields is None else price_fields
    x0 = start if x0 is None else x0
    got = price_transport(field, config, price_fields, x0)
    traj = ascent_trajectory(field, config, x0)
    pts, hv, exited, ode, chain = _transport_oracle(field, config,
                                                    price_fields, x0)
    pairs = ((traj.points, pts), (traj.H_values, hv),
             (got.trajectory.points, pts), (got.ode_route, ode),
             (got.chain_route, chain))
    for a, b in pairs:
        assert a.shape == b.shape
        if ndim == 1:
            assert np.array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)
    assert traj.exited == got.trajectory.exited == exited
    return got


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("boundary", ["clamped", "periodic"])
def test_transport_matches_per_point_oracle(ndim, boundary):
    config = FlowConfig(c_of_H=_speed, dt=2e-2, steps=150, boundary=boundary)
    got = _check_transport(ndim, config)
    first = got.trajectory.points[:, 0]
    if boundary == "periodic":
        # the walk from x = -0.9 runs left, wraps past x = -1 to the far
        # side, and climbs to the crest near x = 0.5
        assert not got.trajectory.exited
        assert np.diff(first).max() > 1.5
        assert abs(first[-1] - 0.5) < 0.05
    else:
        assert got.trajectory.exited


@pytest.mark.parametrize("ndim", [1, 2])
def test_transport_without_prices(ndim):
    config = FlowConfig(c_of_H=_speed, dt=1e-2, steps=40)
    got = _check_transport(ndim, config, price_fields=())
    npts = len(got.trajectory.points)
    assert got.ode_route.shape == got.chain_route.shape == (npts, 0)


@pytest.mark.parametrize("ndim", [1, 2])
def test_transport_exit_on_first_step(ndim):
    config = FlowConfig(c_of_H=_speed, dt=0.5, steps=10)
    got = _check_transport(ndim, config, x0=(-0.99,) * ndim)
    assert got.trajectory.exited and len(got.trajectory.points) == 1
    assert got.ode_route.shape == (1, 2)
    assert np.array_equal(got.ode_route, got.chain_route)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("boundary", ["clamped", "periodic"])
def test_calibration_matches_per_point_oracle(ndim, boundary):
    field, prices, _ = _transport_case(ndim)
    points = np.random.default_rng(7).uniform(-1.0, 1.0, (12, ndim))
    for x in points:
        for price in prices:
            got = calibrate_c(0.3, field, price, x, boundary)
            want = _calibration_oracle(0.3, field, price, x, boundary)
            if ndim == 1:
                assert got == want
            else:
                np.testing.assert_allclose(got, want, rtol=1e-14)


# ---------------------------------------------------------------------------
# the walk in Python floats against the numpy walk through the vectorized
# sampler, bit for bit


def _vectorized_walk(field, config, x0):
    """(points, H values, exited): one numpy step at a time."""
    values = np.stack([field.H, *_gradient_arrays(field, config.boundary)],
                      axis=-1)
    sample = linear_sampler(field.axes(), values)
    lo, hi = field.box()
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    row = sample(x)[0]
    pts, hv, exited = [x], [float(row[0])], False
    for _ in range(config.steps):
        c = check_real(float(config.c_of_H(hv[-1])),
                       "c_of_H on the field's range", "positive")
        x_new = x + config.dt * c * row[1:]
        if config.boundary == "periodic":
            x_new = lo + np.mod(x_new - lo, hi - lo)
        elif np.any(x_new < lo) or np.any(x_new > hi):
            exited = True
            break
        x = x_new
        row = sample(x)[0]
        pts.append(x)
        hv.append(float(row[0]))
    return np.array(pts), np.array(hv), exited


# (boundary, dt, first coordinate of x0): the long walks take steps large
# enough that a product rounded another way moves the point
_WALKS = {"clamped-exit": ("clamped", 2e-2, -0.6),
          "clamped-climb": ("clamped", 0.1, -0.3),
          "periodic-wrap": ("periodic", 0.1, -0.9),
          "first-step-exit": ("clamped", 0.5, -0.99)}


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("case", list(_WALKS))
def test_float_walk_equals_the_vectorized_walk(ndim, case):
    field, _, _ = _transport_case(ndim)
    boundary, dt, x_first = _WALKS[case]
    config = FlowConfig(c_of_H=_speed, dt=dt, steps=150, boundary=boundary)
    x0 = (x_first, 0.3)[:ndim]
    traj = ascent_trajectory(field, config, x0)
    pts, hv, exited = _vectorized_walk(field, config, x0)
    assert traj.points.shape == pts.shape and np.array_equal(traj.points, pts)
    assert np.array_equal(traj.H_values, hv)
    assert traj.exited == exited
    if case == "clamped-exit":
        assert exited and 10 < len(pts) < config.steps + 1
    elif case == "first-step-exit":
        assert exited and len(pts) == 1
    else:
        assert not exited and len(pts) == config.steps + 1
    if case == "periodic-wrap":
        assert np.diff(pts[:, 0]).max() > 1.5


@pytest.mark.parametrize("ndim", [1, 2])
def test_float_wrap_equals_the_numpy_wrap(ndim):
    """On a dyadic grid a linear field's interior slopes, and so the steps,
    are exact: the walk from 0.5 reaches hi = 1 exactly, where it wraps to
    lo, and in 2-d the second coordinate walks down onto lo.  The periodic
    slope at lo, (H[1] - H[-1])/(2h) = -7.75, then steps the first
    coordinate to -2.9375, which wraps from below to -0.9375."""
    n = 33
    grid = ((-1.0,) * ndim, (2.0 / (n - 1),) * ndim, (n,) * ndim)
    if ndim == 1:
        field = EntropyField.from_function(lambda x: 0.5 * x, *grid)
    else:
        field = EntropyField.from_function(lambda x, y: 0.5 * x - 0.5 * y,
                                           *grid)
    config = FlowConfig(dt=0.25, steps=60, boundary="periodic")
    x0 = (0.5, -0.5)[:ndim]
    traj = ascent_trajectory(field, config, x0)
    pts, hv, exited = _vectorized_walk(field, config, x0)
    assert np.array_equal(traj.points, pts) and np.array_equal(traj.H_values, hv)
    assert not traj.exited and not exited
    assert np.array_equal(pts[4], (-1.0, -1.0)[:ndim])
    assert pts[5, 0] == -0.9375


@pytest.mark.parametrize("ndim", [1, 2])
def test_float_walk_stops_where_the_speed_gate_fails(ndim):
    field, _, x0 = _transport_case(ndim)
    seen = []
    for walk in (ascent_trajectory, _vectorized_walk):
        heights = []

        def c_of_H(h, heights=heights):
            heights.append(h)
            return _speed(h) if len(heights) < 30 else 0.0

        config = FlowConfig(c_of_H=c_of_H, dt=1e-2, steps=100,
                            boundary="periodic")
        with pytest.raises(InputError, match="c_of_H"):
            walk(field, config, x0)
        seen.append(heights)
    # the same heights, bit for bit, up to the failing call
    assert len(seen[0]) == 30 and seen[0] == seen[1]


def test_field_keeps_its_own_read_only_copy():
    base, (price0, _), _ = _transport_case(2)
    a, p = base.H.copy(), price0.H.copy()
    field = EntropyField(base.origin, base.spacing, a)
    price = EntropyField(base.origin, base.spacing, p)
    assert field.H is not a and not field.H.flags.writeable
    with pytest.raises(ValueError):
        field.H[0, 0] = 1.0

    def outputs(f, pf, boundary):
        config = FlowConfig(c_of_H=_speed, dt=2e-2, steps=150,
                            boundary=boundary)
        traj = ascent_trajectory(f, config, (-0.9, 0.3))
        return (calibrate_c(0.3, f, pf, (0.3, -0.2), boundary),
                traj.points, traj.H_values, traj.exited)

    # the clamped interpolants are cached before the caller's arrays change,
    # the periodic ones after
    outputs(field, price, "clamped")
    a *= -1.0
    p += np.linspace(0.0, 1.0, p.size).reshape(p.shape)
    assert np.array_equal(field.H, base.H) and np.array_equal(price.H, price0.H)
    for boundary in ("clamped", "periodic"):
        got = outputs(field, price, boundary)
        want = outputs(base, price0, boundary)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    samplers = [entropy_flow._sampler(field, b) for b in ("clamped", "periodic")]
    assert samplers[0] is not samplers[1]
    assert samplers == [entropy_flow._sampler(field, b)
                        for b in ("clamped", "periodic")]


def test_field_copies_keep_read_only_values_and_their_own_cache():
    field, _, x0 = _transport_case(2)
    config = FlowConfig(c_of_H=_speed, dt=0.1, steps=150)
    want = ascent_trajectory(field, config, x0)
    for dup in (pickle.loads(pickle.dumps(field)), copy.copy(field),
                copy.deepcopy(field)):
        assert not dup.H.flags.writeable
        assert np.array_equal(dup.H, field.H)
        got = ascent_trajectory(dup, config, x0)
        assert np.array_equal(got.points, want.points)
        assert (entropy_flow._sampler(dup, "clamped")
                is not entropy_flow._sampler(field, "clamped"))


# ---------------------------------------------------------------------------
# price transport takes grad H from the walk's own rows


def _resampled_transport(field, config, price_fields, x0):
    """(ODE route, chain route) with grad H sampled again at the walk's
    points in one vectorized call."""
    traj = ascent_trajectory(field, config, x0)
    pts = traj.points
    grad_h = _sampler(field, config.boundary)(pts)[:, 1:]
    prices = np.array([_sampler(pf, config.boundary)(pts)
                       for pf in price_fields]
                      ).reshape(len(price_fields), len(pts), 1 + field.ndim)
    chain = prices[..., 0].T
    c = np.array([float(config.c_of_H(h)) for h in traj.H_values[:-1]])
    drift = np.sum(prices[:, :-1, 1:] * grad_h[:-1], axis=-1).T
    ode = np.cumsum(np.vstack([chain[:1], config.dt * c[:, None] * drift]),
                    axis=0)
    return ode, chain


@pytest.mark.parametrize("boundary", ["clamped", "periodic"])
def test_transport_equals_the_resampled_form_on_the_bench_inputs(
        bench_workloads, boundary):
    for seed in range(10):
        inputs = bench_workloads.entropy_inputs(seed)
        config = dataclasses.replace(inputs["flow"], boundary=boundary)
        args = (inputs["traj_field"], config, inputs["prices"], inputs["x0"])
        got = price_transport(*args)
        ode, chain = _resampled_transport(*args)
        assert np.array_equal(got.ode_route, ode), seed
        assert np.array_equal(got.chain_route, chain), seed
