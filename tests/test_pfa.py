import math
import time

import pytest

from casimir_cylinders import (
    BoundaryPair,
    CylinderPair,
    Kind,
    DomainError,
    pfa_force_integral,
    pfa_force_leading,
)
from casimir_cylinders.quadrature import integrate_finite

INTERIOR = CylinderPair(kind=Kind.INTERIOR, a=1.0, b=2.0, d=0.1)
EXTERIOR = CylinderPair(kind=Kind.EXTERIOR, a=1.0, b=1.5, d=0.3)

# frozen from a 50-digit adaptive quadrature of the same surface integral
_INTEGRAL_REF = {
    "interior": -143.53526457149879,
    "exterior": -1.6749537749347587,
}
# same provenance, a=1, b=2, d=0.01 (exact decimal inputs): the gap is 1% of
# the radii, where forming sqrt(...) - r directly loses ~1e-13
_SMALL_GAP_REF = {
    "interior": -408495.13792168640646,
    "exterior": -234231.82167309079645,
}


def test_derivation_constant():
    # the u-substituted gap integral behind the closed leading form
    t0 = time.perf_counter()
    value, _ = integrate_finite(
        lambda u: u ** -4.0 * (u - 1.0) ** -0.5, 1.0, 1e6, 1e-12)
    assert abs(value - 5.0 * math.pi / 16.0) <= 1e-10
    assert time.perf_counter() - t0 <= 1.0


def test_leading_closed_form_interior():
    res = pfa_force_leading(INTERIOR, BoundaryPair.DD)
    ref = -math.pi ** 3 * math.sqrt(2.0) / (768.0 * math.sqrt(2.0)) * 0.1 ** -3.5
    assert type(res) is float
    assert abs(res - ref) <= 1e-13 * abs(ref)
    assert abs(res + 127.67) < 0.01


def test_leading_closed_form_exterior():
    pair = CylinderPair(kind=Kind.EXTERIOR, a=1.0, b=1.0, d=0.1)
    res = pfa_force_leading(pair, BoundaryPair.DD)
    ref = -math.pi ** 3 / (768.0 * 2.0) * 0.1 ** -3.5
    assert abs(res - ref) <= 1e-13 * abs(ref)
    assert abs(res + 63.83) < 0.01


def test_leading_dn_repulsive():
    res = pfa_force_leading(INTERIOR, BoundaryPair.DN)
    assert res > 0.0
    assert abs(res - 111.71) < 0.01


def test_integral_matches_oracle_interior():
    res = pfa_force_integral(INTERIOR, BoundaryPair.DD)
    ref = _INTEGRAL_REF["interior"]
    assert type(res) is float
    assert abs(res - ref) <= 1e-10 * abs(ref)


def test_integral_matches_oracle_exterior():
    res = pfa_force_integral(EXTERIOR, BoundaryPair.DD)
    ref = _INTEGRAL_REF["exterior"]
    assert abs(res - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("kind", [Kind.INTERIOR, Kind.EXTERIOR])
def test_integral_small_gap_accuracy(kind):
    pair = CylinderPair(kind=kind, a=1.0, b=2.0, d=0.01)
    got = pfa_force_integral(pair, BoundaryPair.DD)
    ref = _SMALL_GAP_REF[kind.value]
    assert abs(got - ref) <= 2e-15 * abs(ref)


@pytest.mark.parametrize("pair", [INTERIOR, EXTERIOR])
def test_boundary_pair_factors_exact(pair):
    dd = pfa_force_integral(pair, BoundaryPair.DD)
    nn = pfa_force_integral(pair, BoundaryPair.NN)
    dn = pfa_force_integral(pair, BoundaryPair.DN)
    nd = pfa_force_integral(pair, BoundaryPair.ND)
    pcpc = pfa_force_integral(pair, BoundaryPair.PCPC)
    pcip = pfa_force_integral(pair, BoundaryPair.PCIP)
    assert nn == dd
    assert dn == -7.0 / 8.0 * dd
    assert nd == dn
    assert pcpc == dd + nn
    assert pcip == dn + nd
    assert dd < 0.0 and dn > 0.0 and pcpc < 0.0 and pcip > 0.0


def test_leading_factors_exact():
    dd = pfa_force_leading(INTERIOR, BoundaryPair.DD)
    nn = pfa_force_leading(INTERIOR, BoundaryPair.NN)
    dn = pfa_force_leading(INTERIOR, BoundaryPair.DN)
    nd = pfa_force_leading(INTERIOR, BoundaryPair.ND)
    assert nn == dd
    assert dn == -7.0 / 8.0 * dd
    assert nd == dn
    assert pfa_force_leading(INTERIOR, BoundaryPair.PCPC) == dd + nn
    assert pfa_force_leading(INTERIOR, BoundaryPair.PCIP) == dn + nd


def test_integral_approaches_leading():
    pair = CylinderPair(kind=Kind.INTERIOR, a=1.0, b=2.0, d=0.001)
    res = pfa_force_integral(pair, BoundaryPair.DD)
    lead = pfa_force_leading(pair, BoundaryPair.DD)
    assert abs(res / lead - 1.0) < 0.01


@pytest.mark.parametrize("kind,b", [(Kind.INTERIOR, 2.0), (Kind.EXTERIOR, 1.5)])
def test_residual_shrinks_linearly(kind, b):
    def residual(d):
        p = CylinderPair(kind=kind, a=1.0, b=b, d=d)
        num = pfa_force_integral(p, BoundaryPair.DD)
        den = pfa_force_leading(p, BoundaryPair.DD)
        return abs(num / den - 1.0)

    r1 = residual(0.01)
    r2 = residual(0.001)
    assert r1 / r2 >= 5.0


def test_exterior_swap_invariance():
    fwd = CylinderPair(kind=Kind.EXTERIOR, a=1.0, b=1.5, d=0.3)
    rev = CylinderPair(kind=Kind.EXTERIOR, a=1.5, b=1.0, d=0.3)
    for bc in BoundaryPair:
        assert pfa_force_integral(fwd, bc) == pfa_force_integral(rev, bc)
        assert pfa_force_leading(fwd, bc) == pfa_force_leading(rev, bc)


# d^3.5 is 0 below ~1e-93 and subnormal at 1e-90, where the quotient
# overflows: the d^-3.5 amplitude is no double, so both entry points refuse
# the gap at once instead of dividing by zero or running the quadrature
# ladder on it
@pytest.mark.parametrize("d", [1e-90, 1e-95, 1e-300])
@pytest.mark.parametrize("entry", [pfa_force_leading, pfa_force_integral])
@pytest.mark.parametrize("kind", [Kind.INTERIOR, Kind.EXTERIOR])
def test_gap_below_double_range_rejected(kind, entry, d):
    pair = CylinderPair(kind=kind, a=1.0, b=2.0, d=d)
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="too small"):
        entry(pair, BoundaryPair.DD)
    assert time.perf_counter() - t0 <= 0.1
