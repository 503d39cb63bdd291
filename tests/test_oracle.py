import itertools
import math
import time

import numpy as np
import pytest

from casimir_cylinders import BoundaryPair, CylinderPair, DomainError, Kind, energy_expansion
from casimir_cylinders.geometry import SCALAR_PAIRS
from casimir_cylinders.oracle import (
    PerturbationPoint,
    b_s_chain_numeric,
    b_s_closed,
    b_s_numeric,
    chain_square_backward,
    chain_square_forward,
    chain_square_sum,
    e0_coefficient_check,
    e1_from_b,
    f_frak,
    g_frak,
    g_hat_closed,
    g_hat_numeric,
    h_frak,
    h_hat_closed,
    h_hat_numeric,
    i_endpoint_numeric,
    i_term_numeric,
    k_frak_closed,
    q_integral_rate,
)
from casimir_cylinders import oracle
from casimir_cylinders.oracle import (
    _chain_mean,
    _chain_rule,
    _gauss_mean,
    _power_tail,
)


def pt(**kw):
    base = dict(s=1, m=1.0, tau=1.0, eps=0.0, alpha=1.0)
    base.update(kw)
    return PerturbationPoint(**base)


# -- domain type ------------------------------------------------------------


def test_point_beta_defaults_to_alpha_plus_one():
    p = pt(alpha=0.75)
    assert p.beta == 1.75


@pytest.mark.parametrize("kw", [
    dict(s=-1), dict(s=1.5), dict(s=True), dict(s=np.int64(-1)),
    dict(m=0.0), dict(m=-2.0),
    dict(tau=0.0), dict(tau=1.2), dict(eps=-0.1), dict(alpha=0.0),
    dict(m=math.nan), dict(m=math.inf), dict(tau=math.nan),
    dict(eps=math.nan), dict(eps=math.inf), dict(alpha=math.nan),
    dict(alpha=math.inf),
])
def test_point_validation(kw):
    with pytest.raises(DomainError):
        pt(**kw)


@pytest.mark.parametrize("kw", [
    dict(m=[1.0, -1.0]), dict(m=[1.0, math.nan]), dict(tau=[0.5, 1.5]),
    dict(eps=[0.1, math.inf]), dict(alpha=[math.nan, 1.0]),
    dict(m=[1.0, 2.0], tau=[0.5, 0.6, 0.7]),
])
def test_batched_point_validation(kw):
    # one bad entry, or fields of two shapes, is a DomainError and not
    # numpy's ambiguous truth value
    with pytest.raises(DomainError):
        pt(**kw)


def test_integral_order_is_stored_as_int():
    # numpy integers are integers, as in bessel's length check
    assert type(pt(s=np.int64(2)).s) is int
    assert pt(s=np.int64(2)) == pt(s=2)


def test_batched_point_fields_are_read_only_arrays():
    m = [0.5, 1.0]
    p = pt(m=m, eps=np.array([0.0, 0.1]))
    assert isinstance(p.m, np.ndarray) and p.m.shape == (2,)
    assert not p.m.flags.writeable
    assert p.tau == 1.0
    assert p.beta == 2.0


def _random_batch(rng, s, size=20):
    return PerturbationPoint(
        s=s, m=rng.uniform(0.3, 3.0, size), tau=rng.uniform(0.05, 1.0, size),
        eps=rng.uniform(0.0, 0.3, size), alpha=rng.uniform(0.4, 2.5, size))


def _assert_batch_matches_points(batch, call):
    # call(point, index) with index the batch's slice or one point's number
    values = call(batch, slice(None))
    assert values.shape == batch.m.shape
    for j in range(batch.m.size):
        one = call(PerturbationPoint(
            s=batch.s, m=float(batch.m[j]), tau=float(batch.tau[j]),
            eps=float(batch.eps[j]), alpha=float(batch.alpha[j])), j)
        assert type(one) is float
        assert abs(values[j] - one) <= 1e-15 * (1.0 + abs(one))


@pytest.mark.parametrize("bc", SCALAR_PAIRS)
def test_q_means_batch_match_points(bc):
    rng = np.random.default_rng(41)
    batch = _random_batch(rng, 1)
    n, n2 = rng.uniform(-2.0, 2.0, size=(2, batch.m.size))
    for numeric in (g_hat_numeric, h_hat_numeric):
        _assert_batch_matches_points(
            batch, lambda p, j: numeric(bc, p, n[j], n2[j]))


@pytest.mark.parametrize("s", [0, 1, 2, 3])
@pytest.mark.parametrize("bc", SCALAR_PAIRS)
def test_chain_means_batch_match_points(bc, s):
    batch = _random_batch(np.random.default_rng(43 + s), s)
    _assert_batch_matches_points(batch, lambda p, j: b_s_numeric(bc, p))
    for i in sorted({0, s}):
        _assert_batch_matches_points(
            batch, lambda p, j: i_term_numeric(bc, p, i))


# -- integrand polynomials --------------------------------------------------


def test_f_frak_dd_value():
    assert abs(f_frak(BoundaryPair.DD, pt()) - (-0.25)) < 1e-16


def test_f_frak_tau_one_degenerate():
    p = pt()
    dd = f_frak(BoundaryPair.DD, p)
    for bc in (BoundaryPair.NN, BoundaryPair.DN, BoundaryPair.ND):
        assert f_frak(bc, p) == dd


def test_f_frak_rejects_composites():
    with pytest.raises(DomainError):
        f_frak(BoundaryPair.PCPC, pt())


def test_g_frak_null_point():
    p = pt(tau=0.7)
    for bc in SCALAR_PAIRS:
        assert g_frak(bc, p, 0.0, 0.0, 0.0) == 0.0


def test_g_hat_closed_spot_value():
    got = g_hat_closed(BoundaryPair.DD, pt(), 1.0, 0.0)
    assert abs(got - 0.5) < 1e-16


def test_nn_forms_are_swapped_dd_forms():
    rng = np.random.default_rng(7)
    p = pt(m=1.3, tau=0.6, eps=0.07, alpha=0.8)
    for _ in range(25):
        n, n2 = rng.uniform(-4, 4, size=2)
        assert g_hat_closed(BoundaryPair.NN, p, n, n2) \
            == g_hat_closed(BoundaryPair.DD, p, n2, n)
        assert k_frak_closed(BoundaryPair.ND, p, n, n2) \
            == k_frak_closed(BoundaryPair.DD, p, n2, n)


@pytest.mark.parametrize("bc,kw,n,n2,want", [
    # values of the earlier term-by-term form (27 products in n and n2)
    (BoundaryPair.DD, dict(s=1, m=1.3, tau=0.6, eps=0.07, alpha=0.8),
     1.7, -0.4, -0.026136742080571988),
    (BoundaryPair.NN, dict(s=2, m=0.45, tau=0.85, eps=0.21, alpha=2.6),
     -2.2, 0.9, 161.8770178678073),
])
def test_k_frak_closed_pinned(bc, kw, n, n2, want):
    got = k_frak_closed(bc, PerturbationPoint(**kw), n, n2)
    assert abs(got - want) <= 1e-13 * abs(want)


def _g_hat_terms(p, n, n2):
    # the earlier form of g_hat_closed, term by term (n, n2 after the swap)
    al, be, m, tau, eps = p.alpha, p.beta, p.m, p.tau, p.eps
    return (tau ** 2 * (n - 3.0 * n2) / (4.0 * m),
            be * tau ** 3 * (n + n2) * (n - n2) ** 2 / (8.0 * m ** 2),
            -eps * tau * (n + n2) / al)


def _k_frak_terms(p, n, n2):
    # the earlier form of k_frak_closed, as its 15 monomials in eps,
    # D = n - n2 and S = n + n2 (n, n2 after the swap)
    al, be, m, tau, eps = p.alpha, p.beta, p.m, p.tau, p.eps
    t2 = tau * tau
    d = n - n2
    s = n + n2
    d2, s2 = d * d, s * s
    return (
        tau * ((20.0 * t2 - 9.0) * al ** 2 + (29.0 * t2 - 15.0) * al
               + 5.0 * t2 - 3.0) / (48.0 * m * be),
        t2 * (5.0 * t2 - 2.0) / (32.0 * m ** 2) * s2,
        -t2 * (5.0 * t2 - 2.0) / (8.0 * m ** 2) * d * s,
        -t2 * (al ** 2 - al + (3.0 * al - 2.0) * t2) / (16.0 * m ** 2) * d2,
        be * tau ** 5 / (16.0 * m ** 3) * d2 * d * s,
        -be * tau ** 3 * (4.0 * t2 - 1.0) / (32.0 * m ** 3) * d2 * s2,
        be * tau ** 3 * (al ** 2 - al + 1.0 + 3.0 * (al - 1.0) * t2)
        / (192.0 * m ** 3) * d2 * d2,
        be ** 2 * tau ** 6 / (128.0 * m ** 4) * d2 * d2 * s2,
        eps * (al + t2 - 1.0) / (2.0 * al),
        eps * tau * (2.0 * t2 - 1.0) / (4.0 * al * m) * s2,
        -eps * tau ** 3 / (2.0 * al * m) * d * s,
        -eps * tau * (al + t2) / (4.0 * m) * d2,
        -eps * be * tau ** 4 / (8.0 * al * m ** 2) * d2 * s2,
        eps ** 2 * m * tau / al ** 2,
        eps ** 2 * t2 / (2.0 * al ** 2) * s2,
    )


@pytest.mark.parametrize("bc", [BoundaryPair.DD, BoundaryPair.NN])
@pytest.mark.parametrize("closed,terms", [(g_hat_closed, _g_hat_terms),
                                          (k_frak_closed, _k_frak_terms)],
                         ids=["g_hat", "k_frak"])
def test_folded_forms_match_the_term_by_term_forms(closed, terms, bc):
    # the per-point coefficients and Horner in D^2 agree with the sum of
    # the monomials to rounding, on both sides of the n-swap
    rng = np.random.default_rng(47)
    p = _random_batch(rng, 1, size=2500)
    n, n2 = rng.uniform(-6.0, 6.0, size=(2, p.m.size))
    swapped = (n2, n) if bc is BoundaryPair.NN else (n, n2)
    parts = terms(p, *swapped)
    got = closed(bc, p, n, n2)
    assert np.all(np.abs(got - sum(parts))
                  <= 1e-13 * (1.0 + sum(np.abs(t) for t in parts)))


# -- q-integration theorem --------------------------------------------------


def test_gauss_mean_quadratic():
    assert abs(_gauss_mean(lambda q: q * q, 1.0) - 0.5) < 1e-15


def test_gauss_mean_odd_vanishes():
    # odd moments through degree 23 vanish to rounding of the |q| moment
    for k in range(12):
        odd = _gauss_mean(lambda q, k=k: q ** (2 * k + 1), 2.0)
        size = _gauss_mean(lambda q, k=k: abs(q) ** (2 * k + 1), 2.0)
        assert abs(odd) <= 1e-14 * size


def test_gauss_mean_plain_weight():
    assert abs(_gauss_mean(np.ones_like, 4.0) - 1.0) < 1e-15


def test_gauss_mean_exactness_ladder():
    # the 12-node rule is exact through degree 23: the mean of q^(2k)
    # against e^(-lam q^2) is Gamma(k + 1/2) / (sqrt(pi) lam^k)
    lam = 1.7
    for k in range(12):
        ref = math.gamma(k + 0.5) / (math.sqrt(math.pi) * lam ** k)
        got = _gauss_mean(lambda q, k=k: q ** (2 * k), lam)
        assert abs(got - ref) <= 1e-13 * ref


def test_gauss_mean_batch_of_rates():
    # one call serves a batch of rates; a scalar rate gets a Python float
    lam = np.array([0.5, 1.0, 4.0, 50.0])
    got = _gauss_mean(lambda q: q ** 4, lam)
    assert got.shape == lam.shape
    assert np.all(np.abs(got - 0.75 / lam ** 2) <= 1e-14 * 0.75 / lam ** 2)
    one = _gauss_mean(lambda q: q ** 4, 4.0)
    assert type(one) is float and one == got[2]


def test_q_integral_rate():
    p = pt(m=2.0, tau=0.5, alpha=1.0)
    assert abs(q_integral_rate(p) - 0.5 / 4.0) < 1e-16


def test_q_integration_reproduces_closed_forms():
    # 200 points drawn one at a time, checked as one batch per pair
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    m, tau, eps, alpha, n, n2 = np.array([
        [rng.uniform(0.5, 3.0), rng.uniform(0.05, 1.0), rng.uniform(0.0, 0.3),
         rng.uniform(0.3, 2.5), *rng.uniform(-4.0, 4.0, size=2)]
        for _ in range(200)]).T
    p = PerturbationPoint(s=1, m=m, tau=tau, eps=eps, alpha=alpha)
    worst_g = worst_h = 0.0
    for bc in SCALAR_PAIRS:
        g_ref = g_hat_closed(bc, p, n, n2)
        h_ref = h_hat_closed(bc, p, n, n2)
        worst_g = max(worst_g, np.max(np.abs(g_hat_numeric(bc, p, n, n2)
                                             - g_ref) / (1.0 + np.abs(g_ref))))
        worst_h = max(worst_h, np.max(np.abs(h_hat_numeric(bc, p, n, n2)
                                             - h_ref) / (1.0 + np.abs(h_ref))))
    assert worst_g <= 1e-11
    assert worst_h <= 1e-11
    assert time.perf_counter() - t0 <= 1.0


def test_h_hat_closed_is_k_plus_f():
    p = pt(m=1.7, tau=0.45, eps=0.12, alpha=1.4)
    for bc in SCALAR_PAIRS:
        assert h_hat_closed(bc, p, 2.0, -1.0) \
            == k_frak_closed(bc, p, 2.0, -1.0) + f_frak(bc, p)


def test_h_frak_contains_quadratic_cross_terms():
    # spot identity at one point: H = A^2/2 + A*C + B + D + F; removing the
    # closed-form route, recheck via g_frak: A + C = G
    p = pt(m=1.1, tau=0.9, eps=0.04, alpha=0.6)
    args = (0.8, -0.3, 1.2)
    g = g_frak(BoundaryPair.DD, p, *args)
    h = h_frak(BoundaryPair.DD, p, *args)
    assert math.isfinite(g) and math.isfinite(h)


# -- chain quadratic form ---------------------------------------------------


def test_chain_rewritings_agree():
    rng = np.random.default_rng(11)
    for s in range(1, 7):
        for _ in range(10):
            n = [int(v) for v in rng.integers(-9, 10, size=s)]
            direct = chain_square_sum(n)
            fwd = chain_square_forward(n)
            bwd = chain_square_backward(n)
            scale = 1.0 + abs(direct)
            assert abs(fwd - direct) <= 1e-12 * scale
            assert abs(bwd - direct) <= 1e-12 * scale


def test_chain_empty_round_trip():
    assert chain_square_sum([5]) == 50
    assert abs(chain_square_forward([5]) - 50.0) < 1e-12
    assert abs(chain_square_backward([5]) - 50.0) < 1e-12


# -- B^s closed form vs nested quadrature ------------------------------------


def test_b_s_closed_spot_value():
    got = b_s_closed(BoundaryPair.DD, pt(s=0))
    assert abs(got - 1.0 / 32.0) < 1e-16


def test_b_s_closed_tau_one_degenerate():
    p = pt(s=2)
    assert b_s_closed(BoundaryPair.NN, p) == b_s_closed(BoundaryPair.DD, p)


def test_b_s_closed_shift_structure():
    p = pt(s=1, m=1.4, tau=0.65, eps=0.02, alpha=0.9)
    k = p.s + 1.0
    dd = b_s_closed(BoundaryPair.DD, p)
    unit = k * p.tau * (p.tau ** 2 - 1.0) / p.m
    assert abs(b_s_closed(BoundaryPair.NN, p) - dd - unit / p.beta) < 1e-15
    assert abs(b_s_closed(BoundaryPair.ND, p) - dd - unit) < 1e-15
    assert abs(b_s_closed(BoundaryPair.DN, p) - dd
               + p.alpha * unit / p.beta) < 1e-15


def test_b_s_closed_rejects_composites():
    with pytest.raises(DomainError):
        b_s_closed(BoundaryPair.PCIP, pt(s=0))


def test_b_s_numeric_s0_is_endpoint_value():
    p = pt(s=0, m=1.2, tau=0.7, eps=0.08, alpha=1.1)
    assert b_s_numeric(BoundaryPair.DD, p) \
        == h_hat_closed(BoundaryPair.DD, p, 0.0, 0.0)


@pytest.mark.parametrize("s,bc", [
    (1, BoundaryPair.DD), (2, BoundaryPair.NN),
    (3, BoundaryPair.DN), (2, BoundaryPair.ND),
])
def test_b_s_numeric_matches_closed(s, bc):
    p = PerturbationPoint(s=s, m=1.0, tau=0.8, eps=0.05, alpha=1.0)
    ref = b_s_closed(bc, p)
    assert abs(b_s_numeric(bc, p) - ref) <= 1e-8 * (1.0 + abs(ref))


def test_b_s_numeric_matches_closed_over_grid():
    # s <= 3 over a 324-point (m, tau, eps, alpha) grid, every scalar pair;
    # one batch of 81 points per s
    t0 = time.perf_counter()
    m, tau, eps, alpha = np.array(list(itertools.product(
        (0.5, 1.0, 2.0), (0.25, 0.6, 1.0), (0.0, 0.1, 0.25),
        (0.5, 1.0, 2.0)))).T
    worst = 0.0
    for s in (0, 1, 2, 3):
        p = PerturbationPoint(s=s, m=m, tau=tau, eps=eps, alpha=alpha)
        for bc in SCALAR_PAIRS:
            worst = max(worst, np.max(np.abs(b_s_numeric(bc, p)
                                             - b_s_closed(bc, p))))
    assert worst <= 1e-8
    assert time.perf_counter() - t0 <= 5.0


def test_b_s_numeric_off_center_point():
    p = PerturbationPoint(s=1, m=0.7, tau=0.5, eps=0.15, alpha=0.5)
    for bc in SCALAR_PAIRS:
        ref = b_s_closed(bc, p)
        assert abs(b_s_numeric(bc, p) - ref) <= 1e-8 * (1.0 + abs(ref))


def test_b_s_numeric_rejects_large_s():
    with pytest.raises(DomainError):
        b_s_numeric(BoundaryPair.DD, pt(s=4))


# -- odd-order vanishing and endpoint reduction ------------------------------


@pytest.mark.parametrize("s", [1, 2, 3])
def test_sqrt_eps_order_integrates_to_zero(s):
    p = PerturbationPoint(s=s, m=1.0, tau=0.8, eps=0.05, alpha=1.0)
    total = 0.0
    scale = 0.0
    for bc in (BoundaryPair.DD, BoundaryPair.NN):
        for i in range(s + 1):
            def link(n):
                return g_hat_closed(bc, p, n[i], n[i + 1])
            total += _chain_mean(p, link)
            scale += _chain_mean(p, lambda n: np.abs(link(n)))
    assert abs(total) <= 1e-12 * (1.0 + scale)


def test_chain_mean_does_not_depend_on_the_slice_budget(monkeypatch):
    # one point's rule per slice (27 slices of 64 nodes) and the whole rule
    # in one slice give the default 6 slices' means to rounding, measured
    # against each mean's own scale, the chain mean of |links|
    m, tau, alpha = np.array(list(itertools.product(
        (0.5, 1.0, 2.0), (0.25, 0.75, 1.0), (0.5, 1.0, 2.0)))).T
    p = PerturbationPoint(s=3, m=m, tau=tau, eps=0.1, alpha=alpha)
    chain_mean = oracle._chain_mean
    scales = []

    def recording(point, links):
        scales.append(chain_mean(point, lambda n: np.abs(links(n))))
        return chain_mean(point, links)

    monkeypatch.setattr(oracle, "_chain_mean", recording)

    def means():
        return [f(bc) for bc in (BoundaryPair.DD, BoundaryPair.NN)
                for f in (lambda bc: b_s_chain_numeric(bc, p),
                          *(lambda bc, i=i: i_term_numeric(bc, p, i)
                            for i in range(4)))]

    want = means()
    for budget in (12 ** 3, 27 * 12 ** 3):
        monkeypatch.setattr(oracle, "_NODE_BUDGET", budget)
        for got, ref, scale in zip(means(), want, scales):
            assert np.all(np.abs(got - ref) <= 1e-14 * scale)


def test_chain_rule_per_order():
    n_full, weights = _chain_rule(0)
    assert n_full.tolist() == [[0.0], [0.0]]
    assert weights.tolist() == [1.0]
    for s in (1, 2, 3):
        n_full, weights = _chain_rule(s)
        assert n_full.shape == (s + 2, 12 ** s)
        assert not n_full[[0, -1]].any()
        assert abs(weights.sum() - 1.0) <= 1e-14
        assert not (n_full.flags.writeable or weights.flags.writeable)
    assert _chain_rule(2) is _chain_rule(2)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_endpoint_terms_reduce_to_single_gaussian(s):
    p = PerturbationPoint(s=s, m=1.1, tau=0.75, eps=0.06, alpha=1.2)
    for bc in (BoundaryPair.DD, BoundaryPair.ND):
        lo_full = i_term_numeric(bc, p, 0)
        hi_full = i_term_numeric(bc, p, s)
        assert abs(i_endpoint_numeric(bc, p, 0) - lo_full) \
            <= 1e-8 * (1.0 + abs(lo_full))
        assert abs(i_endpoint_numeric(bc, p, s) - hi_full) \
            <= 1e-8 * (1.0 + abs(hi_full))


def test_term_index_bounds():
    p = pt(s=2)
    with pytest.raises(DomainError):
        i_term_numeric(BoundaryPair.DD, p, 3)
    with pytest.raises(DomainError):
        i_endpoint_numeric(BoundaryPair.DD, p, 1)


# -- reflection sums ----------------------------------------------------------


def test_e0_zeta_sums():
    like = e0_coefficient_check(0)
    alt = e0_coefficient_check(1)
    assert abs(like - math.pi ** 4 / 90.0) <= 1e-12
    assert abs(alt - 7.0 * math.pi ** 4 / 720.0) <= 1e-12
    assert abs(alt / like - 7.0 / 8.0) <= 1e-12
    with pytest.raises(DomainError):
        e0_coefficient_check(2)


@pytest.mark.parametrize("k_start", [51, 202, 203])
@pytest.mark.parametrize("p", [2.0, 4.0])
def test_alternating_power_tail_matches_hurwitz_zeta(p, k_start):
    # sum_{j >= 0} (-1)^j (K + j)^-p = 2^-p [zeta(p, K/2) - zeta(p, (K+1)/2)]
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        want = mp.mpf(2) ** -p * (mp.zeta(p, mp.mpf(k_start) / 2)
                                  - mp.zeta(p, mp.mpf(k_start + 1) / 2))
        got = _power_tail(p, k_start, alternating=True)
        assert abs(got / want - 1) <= 1e-13


def test_e1_bracket_matches_expansion():
    pair = CylinderPair(kind=Kind.INTERIOR, a=1.0, b=2.0, d=0.02)
    got = e1_from_b(pair, BoundaryPair.DD)
    ref = energy_expansion(pair, BoundaryPair.DD).bracket
    assert abs(got - ref) <= 1e-6
    assert abs(got - 0.6805556) <= 1e-6


@pytest.mark.parametrize("b,d,bc", [
    (2.0, 0.02, BoundaryPair.DD), (5.0, 0.1, BoundaryPair.NN),
    (1.3, 0.01, BoundaryPair.DN), (2.0, 0.1, BoundaryPair.ND),
])
def test_e1_closed_tau_integral_matches_mpmath(monkeypatch, b, d, bc):
    # each shell's tau-integrand after the radial Gamma integrals, summed
    # by mpmath quadrature in place of the closed form; e1_from_b through
    # these shells must agree with e1_from_b through the closed ones
    mp = pytest.importorskip("mpmath")
    pair = CylinderPair(kind=Kind.INTERIOR, a=1.0, b=b, d=d)
    closed = e1_from_b(pair, bc)

    def quadrature_shells(k, al, be, epsv, kappa):
        al, be, epsv, kappa = map(mp.mpf, (al, be, epsv, kappa))
        g72, g52, g32 = mp.gamma(3.5), mp.gamma(2.5), mp.gamma(1.5)
        out = []
        for k in map(mp.mpf, k):
            def integrand(tau):
                c = 2 * k * epsv / (al * tau)
                u = k * (k ** 2 + 3 * al + 2) / (3 * al ** 2 * be) * tau
                v = ((k ** 2 + 3 * al + 2) * tau ** 2
                     + (-2 * k ** 2 + 3 * al ** 2 - 1)) / (6 * al * be)
                w = (tau * ((-7 * k ** 2 + 3 * al + 2) * tau ** 2
                            + 4 * k ** 2 + al ** 2 - al - 1) / (16 * be * k)
                     + kappa * k * tau * (tau ** 2 - 1))
                return tau ** -2.5 * (epsv ** 2 * u * g72 / c ** 3.5
                                      + epsv * v * g52 / c ** 2.5
                                      + w * g32 / c ** 1.5)
            out.append(k ** -1.5 * mp.quad(integrand, [0, 1],
                                           method="gauss-legendre"))
        return np.array(out, dtype=float)

    with mp.workdps(30):
        monkeypatch.setattr(oracle, "_shell_terms", quadrature_shells)
        ref = e1_from_b(pair, bc)
    assert abs(closed - ref) <= 1e-14 * (1.0 + abs(ref))


def test_e1_rejects_exterior_and_composites():
    ext = CylinderPair(kind=Kind.EXTERIOR, a=1.0, b=2.0, d=0.02)
    with pytest.raises(DomainError):
        e1_from_b(ext, BoundaryPair.DD)
    intr = CylinderPair(kind=Kind.INTERIOR, a=1.0, b=2.0, d=0.02)
    with pytest.raises(DomainError):
        e1_from_b(intr, BoundaryPair.PCPC)
