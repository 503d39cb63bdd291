import math
from fractions import Fraction

import pytest

from casimir_cylinders import (
    BoundaryPair,
    CylinderPair,
    DomainError,
    Kind,
    PfaBias,
    classify_pfa_bias,
    cylinder_plate_limit,
    energy_expansion,
    force_expansion,
    limit_consistency_check,
    pfa_force_leading,
)
from casimir_cylinders import asymptotics
from casimir_cylinders.geometry import SCALAR_PAIRS

PI2 = math.pi ** 2
INT12 = CylinderPair(kind=Kind.INTERIOR, a=1.0, b=2.0, d=0.1)
EXT11 = CylinderPair(kind=Kind.EXTERIOR, a=1.0, b=1.0, d=0.1)


# The paper's brackets pair by pair, as exact (A, B, C, R) in
#   theta = s1 A/span + (B + C/pi^2) span/(a b) + the R/pi^2 radius term;
# written out per pair so the reference does not share the module's rule.
ENERGY_TABLE = {
    BoundaryPair.DD: (Fraction(7, 12), Fraction(7, 36), 0, 0),
    BoundaryPair.NN: (Fraction(7, 12), Fraction(7, 36), Fraction(-40, 3), 0),
    BoundaryPair.DN: (Fraction(7, 12), Fraction(7, 36), 0, Fraction(160, 21)),
    BoundaryPair.ND: (Fraction(7, 12), Fraction(7, 36), 0, Fraction(160, 21)),
}
FORCE_TABLE = {
    BoundaryPair.DD: (Fraction(7, 20), Fraction(7, 60), 0, 0),
    BoundaryPair.NN: (Fraction(7, 20), Fraction(7, 60), Fraction(-8), 0),
    BoundaryPair.DN: (Fraction(7, 20), Fraction(7, 60), 0, Fraction(32, 7)),
    BoundaryPair.ND: (Fraction(7, 20), Fraction(7, 60), 0, Fraction(32, 7)),
}


def bracket_by_hand(table, bc, kind, a, b):
    """Re-derive the bracket from a per-pair table, independent of the
    module's evaluation path: sign pattern is +1/span interior, -1/span
    exterior; the Neumann-side 1/radius term attaches to b for DN (sign
    follows the geometry) and to a for ND (sign fixed)."""
    span_inv, mixed_rational, mixed_pi2, radius_pi2 = map(float, table[bc])
    span, s1 = (b - a, 1.0) if kind is Kind.INTERIOR else (a + b, -1.0)
    value = (s1 * span_inv / span
             + (mixed_rational + mixed_pi2 / PI2) * span / (a * b))
    if bc is BoundaryPair.DN:
        value += s1 * radius_pi2 / PI2 / b
    if bc is BoundaryPair.ND:
        value -= radius_pi2 / PI2 / a
    return value


def test_energy_coefficients_exact():
    assert asymptotics.SPAN_INV == Fraction(7, 12)
    assert asymptotics.MIXED_RATIONAL == Fraction(7, 36)
    assert asymptotics.MIXED_PI2 == Fraction(-40, 3)
    assert asymptotics.RADIUS_PI2 == Fraction(160, 21)


def test_force_coefficients_are_three_fifths():
    assert asymptotics.FORCE_FACTOR == Fraction(3, 5)
    for bc in SCALAR_PAIRS:
        assert FORCE_TABLE[bc] == tuple(Fraction(3, 5) * c
                                        for c in ENERGY_TABLE[bc])


@pytest.mark.parametrize("table,factor", [
    (ENERGY_TABLE, Fraction(1)), (FORCE_TABLE, Fraction(3, 5))],
    ids=["energy", "force"])
def test_letter_rule_reproduces_the_pair_tables(table, factor):
    # each pair's letters switch on exactly its row of the paper's table:
    # the mixed pi^2 term for NN, the radius term on the Neumann cylinder
    # (b for DN, a for ND), nothing more for DD
    for bc in SCALAR_PAIRS:
        span_inv, mixed_rational, mixed_pi2, radius_pi2 = map(float, table[bc])
        radius = radius_pi2 / PI2
        want = (span_inv, mixed_rational + mixed_pi2 / PI2,
                radius if bc is BoundaryPair.ND else 0.0,
                radius if bc is BoundaryPair.DN else 0.0)
        assert asymptotics._letter_terms(bc, factor) == want


def test_interior_energy_brackets():
    dd = energy_expansion(INT12, BoundaryPair.DD).bracket
    assert abs(dd - (7.0 / 12.0 + 7.0 / 72.0)) < 1e-14
    assert abs(dd - 0.6805556) < 1e-6
    nn = energy_expansion(INT12, BoundaryPair.NN).bracket
    assert abs(nn - (7.0 / 12.0 + (7.0 / 36.0 - 40.0 / (3.0 * PI2)) / 2.0)) < 1e-14


def test_exterior_energy_bracket():
    dd = energy_expansion(EXT11, BoundaryPair.DD).bracket
    assert abs(dd - (-7.0 / 24.0 + 7.0 * 2.0 / 36.0)) < 1e-14
    assert abs(dd - 0.0972222) < 1e-6


def test_interior_force_brackets():
    dd = force_expansion(INT12, BoundaryPair.DD).bracket
    assert abs(dd - (7.0 / 20.0 + 7.0 / 120.0)) < 1e-14
    assert abs(dd - 0.4083333) < 1e-6
    nn = force_expansion(INT12, BoundaryPair.NN).bracket
    assert abs(nn - (7.0 / 20.0 + (7.0 / 60.0 - 8.0 / PI2) / 2.0)) < 1e-14
    assert abs(nn - 0.0030486) < 1e-6


def test_exterior_nd_force_bracket():
    nd = force_expansion(EXT11, BoundaryPair.ND).bracket
    assert abs(nd - (-7.0 / 40.0 + 7.0 / 30.0 - 32.0 / (7.0 * PI2))) < 1e-14
    assert abs(nd - (-0.4048492205)) < 1e-9


@pytest.mark.parametrize("kind,b", [(Kind.INTERIOR, 2.0), (Kind.EXTERIOR, 1.5)])
def test_force_amplitude_is_pfa_leading(kind, b):
    pair = CylinderPair(kind=kind, a=1.0, b=b, d=0.1)
    for bc in BoundaryPair:
        assert force_expansion(pair, bc).amplitude == pfa_force_leading(pair, bc)


def test_energy_amplitude_ratio():
    for bc in BoundaryPair:
        e = energy_expansion(INT12, bc)
        f = force_expansion(INT12, bc)
        assert e.amplitude == f.amplitude * (2.0 * INT12.d / 5.0)


def test_dn_nd_share_amplitude():
    dn = force_expansion(INT12, BoundaryPair.DN)
    nd = force_expansion(INT12, BoundaryPair.ND)
    assert dn.amplitude == nd.amplitude
    assert dn.amplitude > 0.0
    assert dn.bracket != nd.bracket


def test_amplitude_signs():
    for bc, attractive in [
        (BoundaryPair.DD, True), (BoundaryPair.NN, True),
        (BoundaryPair.PCPC, True), (BoundaryPair.DN, False),
        (BoundaryPair.ND, False), (BoundaryPair.PCIP, False),
    ]:
        amp = force_expansion(INT12, bc).amplitude
        assert (amp < 0.0) is attractive


@pytest.mark.parametrize("kind", [Kind.INTERIOR, Kind.EXTERIOR])
@pytest.mark.parametrize("table_name,builder", [
    ("energy", energy_expansion), ("force", force_expansion),
])
def test_bracket_structure_over_grid(kind, table_name, builder):
    table = ENERGY_TABLE if table_name == "energy" else FORCE_TABLE
    for a, b in [(1.0, 2.0), (0.5, 3.0), (2.0, 7.5), (1.0, 1.0), (3.0, 1.0)]:
        if kind is Kind.INTERIOR and not a < b:
            continue
        pair = CylinderPair(kind=kind, a=a, b=b, d=0.01)
        for bc in SCALAR_PAIRS:
            got = builder(pair, bc).bracket
            ref = bracket_by_hand(table, bc, kind, a, b)
            assert abs(got - ref) <= 1e-13 * (1.0 + abs(ref))


def test_exterior_dn_nd_mirror():
    for a, b in [(1.0, 2.0), (0.7, 3.1), (5.0, 0.25)]:
        fwd = CylinderPair(kind=Kind.EXTERIOR, a=a, b=b, d=0.05)
        rev = CylinderPair(kind=Kind.EXTERIOR, a=b, b=a, d=0.05)
        assert force_expansion(fwd, BoundaryPair.DN).bracket \
            == force_expansion(rev, BoundaryPair.ND).bracket
        assert energy_expansion(fwd, BoundaryPair.DN).bracket \
            == energy_expansion(rev, BoundaryPair.ND).bracket


@pytest.mark.parametrize("pair", [INT12, EXT11], ids=["interior", "exterior"])
@pytest.mark.parametrize("builder", [energy_expansion, force_expansion],
                         ids=["energy", "force"])
def test_composite_expansion(builder, pair):
    # a composite is the sum of its TM and TE parts; their amplitudes are
    # equal, so the summed expansion's bracket is the parts' mean
    for composite, tm, te in [
        (BoundaryPair.PCPC, BoundaryPair.DD, BoundaryPair.NN),
        (BoundaryPair.PCIP, BoundaryPair.DN, BoundaryPair.ND),
    ]:
        one, two = builder(pair, tm), builder(pair, te)
        both = builder(pair, composite)
        assert one.amplitude == two.amplitude
        assert both.amplitude == one.amplitude + two.amplitude
        assert both.bracket == 0.5 * (one.bracket + two.bracket)


def test_cylinder_plate_brackets():
    assert abs(cylinder_plate_limit(1.0, BoundaryPair.DD).bracket
               - 7.0 / 60.0) < 1e-15
    nn = cylinder_plate_limit(1.0, BoundaryPair.NN).bracket
    assert abs(nn - (7.0 / 60.0 - 8.0 / PI2)) < 1e-14
    assert abs(nn + 0.6939) < 1e-4
    assert abs(cylinder_plate_limit(1.0, BoundaryPair.DN).bracket
               - 7.0 / 60.0) < 1e-15
    nd = cylinder_plate_limit(1.0, BoundaryPair.ND).bracket
    assert abs(nd - (7.0 / 60.0 - 32.0 / (7.0 * PI2))) < 1e-14
    assert abs(nd + 0.3465) < 1e-4
    # brackets scale as 1/a
    assert abs(cylinder_plate_limit(4.0, BoundaryPair.NN).bracket
               - cylinder_plate_limit(1.0, BoundaryPair.NN).bracket / 4.0) < 1e-15


def test_cylinder_plate_amplitudes():
    amp = {bc: cylinder_plate_limit(2.0, bc).amplitude for bc in BoundaryPair}
    dd, nn = amp[BoundaryPair.DD], amp[BoundaryPair.NN]
    dn, nd = amp[BoundaryPair.DN], amp[BoundaryPair.ND]
    ref = -math.pi ** 3 * math.sqrt(2.0) / (768.0 * math.sqrt(2.0))
    assert type(dd) is float
    assert abs(dd - ref) < 1e-14 * abs(ref)
    assert nn == dd
    assert dn == dd * (-7.0 / 8.0)
    assert nd == dn
    assert amp[BoundaryPair.PCPC] == dd + nn
    assert amp[BoundaryPair.PCIP] == dn + nd
    # a bool, a string, None and a complex are not radii either
    for bad in (0.0, -1.0, math.nan, math.inf, True, "1", None, 1j):
        with pytest.raises(DomainError):
            cylinder_plate_limit(bad, BoundaryPair.DD)


def test_classify_pfa_bias():
    assert classify_pfa_bias(INT12, BoundaryPair.DD) is PfaBias.UNDERESTIMATES
    # NN flips sign across the critical radius ratio near b/a ~ 2.006
    small = CylinderPair(kind=Kind.INTERIOR, a=1.0, b=1.5, d=0.01)
    large = CylinderPair(kind=Kind.INTERIOR, a=1.0, b=3.0, d=0.01)
    assert classify_pfa_bias(small, BoundaryPair.NN) is PfaBias.UNDERESTIMATES
    assert classify_pfa_bias(large, BoundaryPair.NN) is PfaBias.OVERESTIMATES
    # exterior ND flips across b/a ~ 0.18
    tight = CylinderPair(kind=Kind.EXTERIOR, a=1.0, b=0.1, d=0.01)
    wide = CylinderPair(kind=Kind.EXTERIOR, a=1.0, b=1.0, d=0.01)
    assert classify_pfa_bias(tight, BoundaryPair.ND) is PfaBias.UNDERESTIMATES
    assert classify_pfa_bias(wide, BoundaryPair.ND) is PfaBias.OVERESTIMATES
    with pytest.raises(DomainError):
        classify_pfa_bias(INT12, BoundaryPair.PCPC)


def test_limit_consistency():
    assert limit_consistency_check(1.0, 1e6, BoundaryPair.DD) <= 2e-6
    assert limit_consistency_check(1.0, 1e6, BoundaryPair.NN) <= 2e-6
    dn = force_expansion(CylinderPair(kind=Kind.INTERIOR, a=1.0, b=1e6, d=1.0),
                         BoundaryPair.DN).bracket
    assert abs(dn - 7.0 / 60.0) <= 2e-6
    for a, b_large in ((1.0, 500.0), (1.0, "1e6"), (1.0, True), (1.0, None),
                       (1.0, math.inf), (True, 1e6), ("1", 1e6)):
        with pytest.raises(DomainError):
            limit_consistency_check(a, b_large, BoundaryPair.DD)

