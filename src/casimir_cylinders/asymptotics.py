"""Small-gap expansions of the Casimir interaction.

Energy and force behave as  amplitude * (1 + bracket * d)  for d -> 0,
where the amplitude is the closed-form PFA leading term and the bracket
collects the next-to-leading coefficient.  Brackets are stored as exact
rational / rational-over-pi^2 pairs and evaluated only on request, so
tests can check coefficient arithmetic without float round-off.

Bracket structure, interior sign convention (span = b - a):

    theta_1 = s1 * A / span + (B + C/pi^2) * span/(a*b) + s3 * R/pi^2 / r

with r = b for DN, r = a for ND (the Neumann-carrying radius), R = 0 for
DD/NN.  Exterior replaces span by a + b and flips s1 and the DN radius
sign; the ND radius sign stays put.
"""

import math
from dataclasses import astuple, dataclass
from enum import Enum
from fractions import Fraction

from .errors import DomainError
from .geometry import (
    COMPOSITE_PAIRS,
    SCALAR_PAIRS,
    BoundaryPair,
    CylinderPair,
    Kind,
    derive_params,
)
from .pfa import pfa_force_leading

_PI2 = math.pi * math.pi


class ExpansionKind(Enum):
    ENERGY = "Energy"
    FORCE = "Force"


class PfaBias(Enum):
    UNDERESTIMATES = "Underestimates"
    OVERESTIMATES = "Overestimates"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class ExpansionResult:
    """Leading amplitude and NTLO bracket of E or F per unit length.

    value ~ amplitude * (1 + bracket * d).  For cylinder_plate_limit the
    amplitude field holds the coefficient of d^(-7/2) instead (no gap is
    part of that configuration).
    """

    amplitude: float
    bracket: float
    kind: ExpansionKind
    bc: BoundaryPair
    geometry_kind: Kind | None


@dataclass(frozen=True)
class BracketCoeffs:
    """Exact coefficients A, B, C, R of the bracket structure above."""

    span_inv: Fraction
    mixed_rational: Fraction
    mixed_pi2: Fraction
    radius_pi2: Fraction


ENERGY_BRACKETS = {
    BoundaryPair.DD: BracketCoeffs(Fraction(7, 12), Fraction(7, 36),
                                   Fraction(0), Fraction(0)),
    BoundaryPair.NN: BracketCoeffs(Fraction(7, 12), Fraction(7, 36),
                                   Fraction(-40, 3), Fraction(0)),
    BoundaryPair.DN: BracketCoeffs(Fraction(7, 12), Fraction(7, 36),
                                   Fraction(0), Fraction(160, 21)),
    BoundaryPair.ND: BracketCoeffs(Fraction(7, 12), Fraction(7, 36),
                                   Fraction(0), Fraction(160, 21)),
}

# F = -dE/dd of amplitude * d^{-5/2} * (1 + theta d) is (5/2) amplitude
# d^{-7/2} * (1 + (3/5) theta d): every force coefficient is 3/5 of energy's
FORCE_BRACKETS = {
    bc: BracketCoeffs(*(Fraction(3, 5) * c for c in astuple(coeffs)))
    for bc, coeffs in ENERGY_BRACKETS.items()
}


def _scalar_bracket(coeffs: BracketCoeffs, bc: BoundaryPair,
                    kind: Kind, a: float, b: float) -> float:
    if kind is Kind.INTERIOR:
        span, s1 = b - a, 1.0
    else:
        span, s1 = a + b, -1.0
    value = (s1 * float(coeffs.span_inv) / span
             + (float(coeffs.mixed_rational)
                + float(coeffs.mixed_pi2) / _PI2) * span / (a * b))
    if bc is BoundaryPair.DN:
        sign = 1.0 if kind is Kind.INTERIOR else -1.0
        value += sign * float(coeffs.radius_pi2) / _PI2 / b
    elif bc is BoundaryPair.ND:
        value -= float(coeffs.radius_pi2) / _PI2 / a
    return value


def _expansion(pair: CylinderPair, bc: BoundaryPair,
               kind: ExpansionKind) -> ExpansionResult:
    derive_params(pair)
    table = ENERGY_BRACKETS if kind is ExpansionKind.ENERGY else FORCE_BRACKETS
    if bc in COMPOSITE_PAIRS:
        base, _ = COMPOSITE_PAIRS[bc]
        partner = (BoundaryPair.NN if base is BoundaryPair.DD
                   else BoundaryPair.ND)
        # equal amplitudes, so the weighted bracket is the plain mean
        bracket = 0.5 * (_scalar_bracket(table[base], base, pair.kind,
                                         pair.a, pair.b)
                         + _scalar_bracket(table[partner], partner, pair.kind,
                                           pair.a, pair.b))
    else:
        bracket = _scalar_bracket(table[bc], bc, pair.kind, pair.a, pair.b)
    amplitude = pfa_force_leading(pair, bc).force_per_length
    if kind is ExpansionKind.ENERGY:
        amplitude *= 2.0 * pair.d / 5.0
    return ExpansionResult(amplitude=amplitude, bracket=bracket, kind=kind,
                           bc=bc, geometry_kind=pair.kind)


def energy_expansion(pair: CylinderPair, bc: BoundaryPair) -> ExpansionResult:
    """E/L ~ amplitude*(1 + bracket*d) with amplitude ~ d^(-5/2)."""
    return _expansion(pair, bc, ExpansionKind.ENERGY)


def force_expansion(pair: CylinderPair, bc: BoundaryPair) -> ExpansionResult:
    """F/L ~ amplitude*(1 + bracket*d) with amplitude ~ d^(-7/2).

    The amplitude reuses the PFA closed form, so the two agree bit for bit.
    """
    return _expansion(pair, bc, ExpansionKind.FORCE)


def cylinder_plate_limit(a: float, bc: BoundaryPair) -> ExpansionResult:
    """b -> infinity limit: cylinder of radius a facing a plate.

    Both geometries collapse onto the same expansion; the amplitude field
    carries the d-independent coefficient of d^(-7/2).
    """
    if a <= 0:
        raise DomainError("radius a must be positive")
    if bc in COMPOSITE_PAIRS:
        base, _ = COMPOSITE_PAIRS[bc]
        partner = (BoundaryPair.NN if base is BoundaryPair.DD
                   else BoundaryPair.ND)
        lo = cylinder_plate_limit(a, base)
        hi = cylinder_plate_limit(a, partner)
        return ExpansionResult(amplitude=2.0 * lo.amplitude,
                               bracket=0.5 * (lo.bracket + hi.bracket),
                               kind=ExpansionKind.FORCE, bc=bc,
                               geometry_kind=None)
    coeffs = FORCE_BRACKETS[bc]
    # span/(a*b) -> 1/a and the 1/span, DN 1/b terms vanish
    bracket = (float(coeffs.mixed_rational)
               + float(coeffs.mixed_pi2) / _PI2) / a
    if bc is BoundaryPair.ND:
        bracket -= float(coeffs.radius_pi2) / _PI2 / a
    amplitude = -math.pi ** 3 * math.sqrt(a) / (768.0 * math.sqrt(2.0))
    if bc in (BoundaryPair.DN, BoundaryPair.ND):
        amplitude *= -7.0 / 8.0
    return ExpansionResult(amplitude=amplitude, bracket=bracket,
                           kind=ExpansionKind.FORCE, bc=bc,
                           geometry_kind=None)


def classify_pfa_bias(pair: CylinderPair, bc: BoundaryPair) -> PfaBias:
    """Whether PFA under- or overestimates the force magnitude at small d.

    Exact magnitude ~ |amplitude|*(1 + bracket*d), PFA magnitude ~
    |amplitude|, so the bracket sign decides.
    """
    if bc not in SCALAR_PAIRS:
        raise DomainError("bias classification applies to scalar pairs only")
    result = force_expansion(pair, bc)
    if abs(result.bracket) * pair.d < 1e-14:
        return PfaBias.BOUNDARY
    if result.bracket > 0:
        return PfaBias.UNDERESTIMATES
    return PfaBias.OVERESTIMATES


def limit_consistency_check(a: float, b_large: float,
                            bc: BoundaryPair) -> float:
    """Deviation of finite-b force brackets from the cylinder-plate bracket.

    Returns max over the two geometries of a*|bracket(b_large) - bracket_cp|,
    dimensionless via the radius a since brackets scale as 1/length.
    Expected O(a/b_large).
    """
    if b_large < 1e3 * a:
        raise DomainError("b_large must be at least 10^3 a")
    cp = cylinder_plate_limit(a, bc).bracket
    deviation = 0.0
    for kind in (Kind.INTERIOR, Kind.EXTERIOR):
        pair = CylinderPair(kind, a, b_large, a)
        finite = force_expansion(pair, bc).bracket
        deviation = max(deviation, a * abs(finite - cp))
    return deviation
