"""Class-basis ensemble evolution against the dense tuple oracle."""

import itertools
import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerophase import ensemble
from zerophase._numeric import log_factorial
from zerophase.asymptotics import convergence_scan, limit_F, limit_w
from zerophase.averaging import AveragingKernel, financial_average
from zerophase.ensemble import (EnsembleState, class_project,
                                closed_form_coeff, closed_form_log_coeff,
                                compositions,
                                ensemble_from_tuple, evolve_step,
                                init_product_state, log_state_norm, marginal,
                                marginals, oracle_evolve, oracle_marginal,
                                oracle_norm, reduce_to_classes,
                                specific_free_energy, state_norm,
                                tuple_product_state)
from zerophase.errors import GuardExceeded, InputError

LN2 = math.log(2.0)


def test_compositions_count_and_order():
    occ = compositions(4, 3)
    assert occ.shape == (15, 3)  # C(4+2, 2)
    assert (occ.sum(axis=1) == 4).all()
    # lexicographic, first coordinate fastest-growing last
    assert occ.tolist() == sorted(occ.tolist())


def test_class_rank_is_the_row_of_compositions():
    for l in range(1, 6):
        for M in range(1, 13):
            rows = compositions(M, l).tolist()
            assert [ensemble._class_rank(r) for r in rows] == list(range(len(rows)))
    rows = compositions(400, 3)
    for i in np.random.default_rng(3).integers(0, len(rows), 50).tolist():
        assert ensemble._class_index(400, 3, rows[i]) == i
    state = init_product_state((1.0, 2.0, 0.5), 400)
    assert state.coeff(rows[-1]) == math.exp(state.log_coeffs[-1])


def _recursive_compositions(remaining: int, slots: int):
    # the layout's former generator: first coordinate outermost
    if slots == 1:
        yield (remaining,)
        return
    for first in range(remaining + 1):
        for rest in _recursive_compositions(remaining - first, slots - 1):
            yield (first,) + rest


@pytest.mark.parametrize("Ms,l", [(range(13), l) for l in range(1, 6)]
                         + [((420,), 3), (range(9), 6)])
def test_class_layout_equals_recursive_generator(Ms, l):
    for M in Ms:
        want = np.array(list(_recursive_compositions(M, l)),
                        dtype=np.int64).reshape(-1, l)
        occ, log_sizes = ensemble._class_layout(M, l)
        assert occ.dtype == want.dtype and np.array_equal(occ, want), (M, l)
        assert log_sizes.shape == (len(want),)


def _stars_and_bars(M: int, l: int) -> tuple:
    # the layout as it was built before: l - 1 bars among M + l - 1 slots,
    # in the lexicographic order of itertools.combinations; the gaps
    # between bars are the occupations
    if l == 1:
        occ = np.array([[M]], dtype=np.int64)
    else:
        slots = M + l - 1
        bars = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(slots), l - 1)),
            dtype=np.int64, count=math.comb(slots, l - 1) * (l - 1)).reshape(-1, l - 1)
        edges = np.empty((bars.shape[0], l + 1), dtype=np.int64)
        edges[:, 0], edges[:, 1:-1], edges[:, -1] = -1, bars, slots
        occ = np.diff(edges, axis=1) - 1
    lf = log_factorial(np.arange(M + 1))
    return occ, lf[M] - lf[occ].sum(axis=1)


@pytest.mark.parametrize("M,l", [(0, 1), (1, 1), (7, 1), (0, 4), (1, 6),
                                 (419, 3), (423, 3), (60, 4)])
def test_class_layout_equals_stars_and_bars(M, l):
    want_occ, want_log_sizes = _stars_and_bars(M, l)
    occ, log_sizes = ensemble._class_layout.__wrapped__(M, l)
    assert occ.dtype == want_occ.dtype and np.array_equal(occ, want_occ)
    assert np.array_equal(log_sizes.view(np.int64), want_log_sizes.view(np.int64))
    # the cached layout is the same arrays, read-only
    cached = ensemble._class_layout(M, l)
    assert ensemble._class_layout(M, l) is cached
    for got, want in zip(cached, (want_occ, want_log_sizes)):
        assert not got.flags.writeable and np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[0] = 0


def test_product_state_norm_is_weight_sum_power():
    state = init_product_state((0.3, 0.7, 1.1), 5)
    np.testing.assert_allclose(state_norm(state), 2.1 ** 5, rtol=1e-12)


def test_worked_two_member_example():
    """g=(1,1), lambda=(0, ln 2), beta=1, M=2, one step: norm 13/4."""
    state = init_product_state((1.0, 1.0), 2)
    state = evolve_step(state, (0.0, LN2), 1.0)
    np.testing.assert_allclose(state_norm(state), 13.0 / 4.0, rtol=1e-14)
    np.testing.assert_allclose(marginal(state, 0), 8.0 / 13.0, rtol=1e-13)
    np.testing.assert_allclose(specific_free_energy(state, 1.0),
                               -0.25 * math.log(3.25), rtol=1e-13)


def test_closed_form_matches_stepped_coefficients():
    g = (0.4, 1.0, 0.6)
    lam = (0.0, 0.8, 1.7)
    state = init_product_state(g, 4)
    for _ in range(3):
        state = evolve_step(state, lam, 0.7)
    for occ in compositions(4, 3)[::4]:
        direct = closed_form_coeff(g, lam, 0.7, 4, 3, tuple(occ))
        np.testing.assert_allclose(state.coeff(occ), direct, rtol=1e-11)


def test_marginals_sum_to_one():
    state = init_product_state((0.2, 0.5, 0.3), 6)
    state = evolve_step(state, (0.0, 0.5, 1.3), 1.0)
    w = marginals(state)
    np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-12)
    assert (w > 0).all()


def test_marginals_match_the_weighted_logsumexp_route():
    """The one weighted sum against the route it replaced: scipy's weighted
    log-sum-exp per level, on seeded states up to M = 400 with zero weights
    in g.  That route rounds ln sum_k occ_ki e^{a_k}, about max a + ln M,
    before its exp: relative error of order eps (max|a| + ln M)."""
    from scipy.special import logsumexp as scipy_logsumexp

    eps = np.finfo(float).eps
    rng = np.random.default_rng(3)
    for _ in range(200):
        l = int(rng.integers(2, 5))
        M = int(rng.integers(1, 61 if l == 4 else 401))
        g = np.where(rng.random(l) < 0.3, 0.0, rng.uniform(0.1, 2.0, l))
        g[0] = g[0] or 1.0
        lam, beta = rng.uniform(0.0, 2.0, l), float(rng.uniform(0.1, 3.0))
        state = init_product_state(g, M)
        for _ in range(int(rng.integers(0, 4))):
            state = evolve_step(state, lam, beta)
        occ, log_sizes = ensemble._class_layout(M, l)
        a = state.log_coeffs + log_sizes
        log_norm = log_state_norm(state)
        with np.errstate(all="ignore"):  # scipy's 0 * inf past e^709
            want = np.array([np.exp(scipy_logsumexp(a, b=occ[:, i]) - log_norm)
                             / M for i in range(l)])
        got = marginals(state)
        # a level without weight: 0, where scipy's route can give NaN
        assert np.array_equal(got == 0, g == 0)
        unit = eps * (np.max(np.abs(a[np.isfinite(a)])) + math.log(M))
        on = g > 0
        assert np.all(np.abs(got[on] - want[on]) <= 4 * unit * want[on])


def test_marginals_of_a_weightless_level_are_zero_past_float_range():
    # ln norm ~ 765: e^a overflows, so a weighted sum over the level's
    # classes multiplies inf by the zero weights of the empty ones
    state = init_product_state((0.62, 0.55, 0.0), 399)
    for _ in range(3):
        state = evolve_step(state, (0.5, 1.0, 1.5), 0.13)
    assert log_state_norm(state) > 709
    w = marginals(state)
    assert w[2] == 0.0
    np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-13)


def test_oracle_equivalence_random_instances():
    """Class pipeline against the dense l^M oracle on 10 seeded draws."""
    rng = np.random.default_rng(42)
    for _ in range(10):
        l = int(rng.integers(2, 4))
        M = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        g = rng.uniform(0.1, 2.0, l)
        lam = np.sort(rng.uniform(0.0, 2.0, l))
        beta = float(rng.uniform(0.3, 2.0))

        state = init_product_state(g, M)
        ts = tuple_product_state(g, M)
        for _ in range(n):
            state = evolve_step(state, lam, beta)
            ts = oracle_evolve(ts, lam, beta)

        np.testing.assert_allclose(state_norm(state), oracle_norm(ts),
                                   rtol=1e-10)
        for i in range(l):
            np.testing.assert_allclose(marginal(state, i),
                                       oracle_marginal(ts, i), rtol=1e-10)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), l=st.integers(2, 3), M=st.integers(1, 5),
       n=st.integers(1, 3), beta=st.floats(0.3, 2.0))
def test_tuple_oracle_class_basis_closed_form_agree(data, l, M, n, beta):
    """Tuple oracle = class basis = closed form, on drawn instances."""
    g = data.draw(hnp.arrays(float, l, elements=st.floats(0.1, 2.0)))
    lam = np.sort(data.draw(hnp.arrays(float, l, elements=st.floats(0.0, 2.0))))

    state = init_product_state(g, M)
    ts = tuple_product_state(g, M)
    for _ in range(n):
        state = evolve_step(state, lam, beta)
        ts = oracle_evolve(ts, lam, beta)

    np.testing.assert_allclose(state_norm(state), oracle_norm(ts), rtol=1e-10)
    for i in range(l):
        np.testing.assert_allclose(marginal(state, i), oracle_marginal(ts, i),
                                   rtol=1e-10)
    for occ in compositions(M, l):
        np.testing.assert_allclose(state.coeff(occ),
                                   closed_form_coeff(g, lam, beta, M, n, occ),
                                   rtol=1e-11)


def test_class_projections_partition_the_state():
    ts = oracle_evolve(tuple_product_state((0.5, 1.5, 1.0), 3), (0.0, 1.0, 0.4),
                       1.0)
    total = np.zeros_like(ts.psi)
    for k, occ in enumerate(compositions(3, 3)):
        part = class_project(ts, occ)
        # one class's mass, the rest zero
        log_mass = reduce_to_classes(part).log_coeffs
        assert np.isfinite(log_mass[k])
        assert np.all(np.delete(log_mass, k) == -np.inf)
        total += part.psi
    np.testing.assert_array_equal(total, ts.psi)


def test_reduction_round_trip():
    g = (0.5, 1.5)
    ts = tuple_product_state(g, 3)
    ts = oracle_evolve(ts, (0.0, 1.0), 1.0)
    reduced = reduce_to_classes(ts)
    rebuilt = ensemble_from_tuple(ts, step=1)
    # the reduction weighs each class by its 1-norm mass = size * value
    log_sizes = np.array([math.lgamma(4.0) - sum(math.lgamma(k + 1.0) for k in occ)
                          for occ in compositions(3, 2)])
    np.testing.assert_allclose(reduced.log_coeffs, rebuilt.log_coeffs + log_sizes,
                               rtol=1e-12)
    # R preserves the 1-norm: total class mass = dense 1-norm = ensemble norm
    np.testing.assert_allclose(np.exp(reduced.log_coeffs).sum(),
                               oracle_norm(ts), rtol=1e-12)
    np.testing.assert_allclose(state_norm(rebuilt), oracle_norm(ts), rtol=1e-12)


def test_log_norm_handles_large_ensembles():
    # M=400 would overflow the plain norm for lively weights
    state = init_product_state((1.0, 1.0), 400)
    state = evolve_step(state, (0.0, LN2), 1.0)
    assert math.isfinite(log_state_norm(state))
    assert math.isfinite(specific_free_energy(state, 1.0))


def test_closed_form_rejects_negative_occupation():
    with pytest.raises(InputError, match="nonnegative"):
        closed_form_log_coeff((1.0, 1.0), (0.0, 1.0), 0.7, 4, 2, (-1, 5))


def test_closed_form_rejects_non_integer_occupation():
    with pytest.raises(InputError, match="integers"):
        closed_form_log_coeff((1.0, 1.0), (0.0, 1.0), 0.7, 4, 2, (1.5, 2.5))


def test_input_validation():
    with pytest.raises(InputError):
        init_product_state((1.0, -0.2), 3)
    with pytest.raises(InputError):
        init_product_state((1.0, 1.0), 0)
    state = init_product_state((1.0, 1.0), 2)
    with pytest.raises(InputError):
        evolve_step(state, (0.0, 1.0, 2.0), 1.0)
    with pytest.raises(InputError):
        evolve_step(state, ((0.0, 1.0),), 1.0)
    with pytest.raises(InputError):
        evolve_step(state, (0.0, 1.0), -1.0)
    for occ in ((2,), [[1, 1]]):  # one count, one row: not one per weight
        with pytest.raises(InputError):
            closed_form_log_coeff((1.0, 1.0), (0.0, 1.0), 0.7, 2, 1, occ)


def test_tuple_oracle_guard():
    # guard must fire before the l**M array is materialized
    with pytest.raises(GuardExceeded):
        tuple_product_state((1.0, 1.0, 1.0), 20)
    with pytest.raises(GuardExceeded):
        tuple_product_state(np.ones(5), 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    lam = (bad, 1.0)
    state = init_product_state((1.0, 1.0), 2)
    with pytest.raises(InputError, match="finite"):
        evolve_step(state, lam, 1.0)
    with pytest.raises(InputError, match="finite"):
        closed_form_log_coeff((1.0, 1.0), lam, 0.7, 2, 1, (1, 1))
    with pytest.raises(InputError, match="finite"):
        oracle_evolve(tuple_product_state((1.0, 1.0), 2), lam, 1.0)
    with pytest.raises(InputError, match="weights must be finite"):
        init_product_state((bad, 1.0), 2)


@pytest.mark.parametrize("g", [(math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0),
                               (0.0, 0.0), (), [[1.0, 1.0]]],
                         ids=["nan", "inf", "negative", "all-zero", "empty",
                              "2-d"])
def test_every_route_rejects_an_invalid_weight_vector(g):
    # the class route, its closed form and tuple oracle, the limit laws and
    # the average all read g through averaging.WeightVector
    lam = (0.0, 1.0)
    for call in (lambda: init_product_state(g, 2),
                 lambda: closed_form_log_coeff(g, lam, 0.7, 2, 1, (1, 1)),
                 lambda: closed_form_coeff(g, lam, 0.7, 2, 1, (1, 1)),
                 lambda: tuple_product_state(g, 2),
                 lambda: limit_F(g, lam, 1.0, 2),
                 lambda: limit_w(g, lam, 1.0, 2),
                 lambda: convergence_scan(g, lam, 1.0, 2, (5,)),
                 lambda: financial_average(AveragingKernel.exponential(1.0),
                                           lam, g)):
        with pytest.raises(InputError):
            call()


# level index i of marginal and oracle_marginal on three levels: an integer
# or integral float in [-3, 3), negative ones counting from the last level
@pytest.mark.parametrize("i,want", [
    (0, 0), (2, 2), (-1, 2), (-3, 0), (1.0, 1), (np.int64(2), 2),
    (np.float64(-2.0), 1),
    (3, None), (-4, None), (1.5, None), (math.nan, None), (math.inf, None),
    (True, None), ("1", None), (None, None), (2**60, None)])
def test_marginal_index_gate(i, want):
    g = (1.0, 2.0, 3.0)
    state, ts = init_product_state(g, 2), tuple_product_state(g, 2)
    if want is None:
        for call in (marginal, lambda s, k: oracle_marginal(ts, k)):
            with pytest.raises(InputError, match=r"level index i must be an "
                                                 r"integer in \[-3, 3\)"):
                call(state, i)
    else:
        assert marginal(state, i) == marginals(state)[want]
        assert oracle_marginal(ts, i) == oracle_marginal(ts, want)
