import math

import numpy as np
import pytest

from casimir_cylinders import quadrature
from casimir_cylinders.errors import DomainError, NoConvergence
from casimir_cylinders.quadrature import integrate_finite


def test_finite_constant():
    value, err = integrate_finite(lambda t: t * 0 + 1.0, 0.0, 1.0, 1e-8)
    assert abs(value - 1.0) < 1e-14
    assert err >= 0.0


def test_finite_bracket_polynomial():
    # tau-integral whose value is the concentric DD curvature coefficient
    value, _ = integrate_finite(lambda t: (40.0 * t * t + 3.0) / 24.0,
                                0.0, 1.0, 1e-8)
    assert abs(value - (7.0 / 12.0 + 7.0 / 72.0)) < 1e-13


def test_finite_inverse_sqrt_endpoint():
    # the lo-endpoint substitution must absorb (x-lo)^(-1/2) exactly:
    # int_0^1 x^(-1/2) (1-x)^(5/2) dx = B(1/2, 7/2) = 5 pi / 16
    value, _ = integrate_finite(
        lambda x: x ** -0.5 * (1.0 - x) ** 2.5, 0.0, 1.0, 1e-12)
    assert abs(value - 5.0 * math.pi / 16.0) < 1e-12


def test_finite_truncated_pfa_tail():
    # same beta integral in the u = 1/v chart, truncated far out
    ref = 5.0 * math.pi / 16.0
    value, _ = integrate_finite(
        lambda u: u ** -4.0 * (u - 1.0) ** -0.5, 1.0, 1e6, 1e-9)
    assert abs(value - ref) <= 1e-8 * ref


def test_finite_rejects_empty_interval():
    with pytest.raises(DomainError):
        integrate_finite(lambda x: x, 1.0, 1.0, 1e-8)


@pytest.mark.parametrize("rel_tol", [0.0, -1e-8, math.nan, math.inf, True,
                                     "x", None])
def test_finite_rejects_bad_tolerance(rel_tol):
    with pytest.raises(DomainError, match="rel_tol"):
        integrate_finite(lambda x: x, 0.0, 1.0, rel_tol)


def test_finite_no_convergence_on_slow_decay(monkeypatch):
    # a slowly decaying integrand over a long interval starves the ladder
    monkeypatch.setattr(quadrature, "_MAX_DOUBLINGS", 4)
    with pytest.raises(NoConvergence, match="4 doublings"):
        integrate_finite(lambda x: (1.0 + x) ** -1.01, 0.0, 1e8, 1e-10)


def test_finite_nonfinite_sum_stops_at_first_rung(monkeypatch):
    # an integrand that is infinite at some node cannot be repaired by a
    # finer rule: the ladder ends at the rung that met it
    rungs = []
    real = quadrature._gauss_legendre

    def counted(g, lo, hi, n):
        rungs.append(n)
        return real(g, lo, hi, n)

    monkeypatch.setattr(quadrature, "_gauss_legendre", counted)
    with pytest.raises(NoConvergence, match="not finite"):
        integrate_finite(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0,
                         1e-8)
    assert rungs == [32]


def test_legendre_rule_polynomial_exactness():
    from casimir_cylinders.quadrature import _gauss_legendre
    # 4 nodes are exact through degree 7: int_0^2 x^7 dx = 32
    got = _gauss_legendre(lambda x: x ** 7, 0.0, 2.0, 4)
    assert abs(got - 32.0) <= 32.0 * 1e-14


def test_newton_rule_matches_eigensolver():
    from casimir_cylinders.quadrature import _leggauss
    for n in (64, 101, 400):
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        x, w = _leggauss(n)
        assert np.max(np.abs(x - x_ref)) <= 2e-15
        assert np.max(np.abs(w - w_ref) / w_ref) <= 1e-9
        assert abs(float(w.sum()) - 2.0) <= 1e-14


def _mp_legendre_half(mp, n, dps=40):
    """Positive nodes (descending) and their weights of the n-point
    Gauss-Legendre rule, by Newton iteration in mpmath at dps digits."""
    with mp.workdps(dps):
        tol = mp.mpf(10) ** (5 - dps)

        def legendre(x):
            p0, p1 = mp.mpf(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            return p1, n * (x * p1 - p0) / (x * x - 1)

        nodes, weights = [], []
        for k in range(n // 2):
            x = mp.cos(mp.pi * (k + mp.mpf(3) / 4) / (n + mp.mpf(1) / 2))
            dx = mp.mpf(1)
            while abs(dx) > tol:
                p, dp = legendre(x)
                dx = p / dp
                x -= dx
            _, dp = legendre(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


@pytest.mark.parametrize("n", [32, 64, 128, 256, 512])
def test_legendre_rule_matches_high_precision(n):
    from casimir_cylinders.quadrature import _leggauss
    mp = pytest.importorskip("mpmath")
    nodes, weights = _mp_legendre_half(mp, n)
    x, w = _leggauss(n)
    half = n // 2
    # the rule is symmetric: compare both halves against the positive one
    for xs, ws in ((x[half:][::-1], w[half:][::-1]), (-x[:half], w[:half])):
        for xi, wi, x_ref, w_ref in zip(xs, ws, nodes, weights):
            assert abs(mp.mpf(float(xi)) - x_ref) <= 2.3e-16
            assert abs(mp.mpf(float(wi)) / w_ref - 1) <= 1e-12
