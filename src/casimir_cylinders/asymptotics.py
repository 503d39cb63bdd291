"""Small-gap expansions of the Casimir interaction.

Energy and force behave as  amplitude * (1 + bracket * d)  for d -> 0,
where the amplitude is the closed-form PFA leading term and the bracket
collects the next-to-leading coefficient.  Brackets are stored as exact
rational / rational-over-pi^2 pairs and evaluated only on request, so
tests can check coefficient arithmetic without float round-off.  A
composite pair is the sum of its scalar parts: its amplitude is theirs
summed and, the parts' amplitudes being equal, its bracket their mean.

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
    SCALAR_PAIRS,
    BoundaryPair,
    CylinderPair,
    Kind,
    scalar_parts,
)
from .pfa import _pair_factor, pfa_force_leading

_PI2 = math.pi * math.pi


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


def _part_mean(bc: BoundaryPair, scalar_bracket) -> float:
    """Bracket of bc as the mean of scalar_bracket over its scalar parts.

    The parts' leading amplitudes are equal, so the amplitude-weighted mean
    that the sum of the parts calls for is the plain one.
    """
    parts = scalar_parts(bc)
    return sum(scalar_bracket(part) for part in parts) / len(parts)


def _bracket(pair: CylinderPair, bc: BoundaryPair, table: dict) -> float:
    """NTLO bracket of bc at pair from an ENERGY/FORCE_BRACKETS table."""
    a, b = pair.a, pair.b
    if pair.kind is Kind.INTERIOR:
        span, s1 = b - a, 1.0
    else:
        span, s1 = a + b, -1.0

    def scalar_bracket(part: BoundaryPair) -> float:
        coeffs = table[part]
        value = (s1 * float(coeffs.span_inv) / span
                 + (float(coeffs.mixed_rational)
                    + float(coeffs.mixed_pi2) / _PI2) * span / (a * b))
        if part is BoundaryPair.DN:
            value += s1 * float(coeffs.radius_pi2) / _PI2 / b
        elif part is BoundaryPair.ND:
            value -= float(coeffs.radius_pi2) / _PI2 / a
        return value

    return _part_mean(bc, scalar_bracket)


def energy_expansion(pair: CylinderPair, bc: BoundaryPair) -> ExpansionResult:
    """E/L ~ amplitude*(1 + bracket*d) with amplitude ~ d^(-5/2)."""
    bracket = _bracket(pair, bc, ENERGY_BRACKETS)
    return ExpansionResult(pfa_force_leading(pair, bc) * (2.0 * pair.d / 5.0),
                           bracket)


def force_expansion(pair: CylinderPair, bc: BoundaryPair) -> ExpansionResult:
    """F/L ~ amplitude*(1 + bracket*d) with amplitude ~ d^(-7/2).

    The amplitude reuses the PFA closed form, so the two agree bit for bit.
    """
    bracket = _bracket(pair, bc, FORCE_BRACKETS)
    return ExpansionResult(pfa_force_leading(pair, bc), bracket)


def cylinder_plate_limit(a: float, bc: BoundaryPair) -> ExpansionResult:
    """b -> infinity limit: cylinder of radius a facing a plate.

    Both geometries collapse onto the same expansion; the amplitude field
    carries the d-independent coefficient of d^(-7/2).
    """
    if a <= 0:
        raise DomainError("radius a must be positive")

    def scalar_bracket(part: BoundaryPair) -> float:
        coeffs = FORCE_BRACKETS[part]
        # span/(a*b) -> 1/a and the 1/span, DN 1/b terms vanish
        value = (float(coeffs.mixed_rational)
                 + float(coeffs.mixed_pi2) / _PI2) / a
        if part is BoundaryPair.ND:
            value -= float(coeffs.radius_pi2) / _PI2 / a
        return value

    amplitude = -math.pi ** 3 * math.sqrt(a) / (768.0 * math.sqrt(2.0))
    return ExpansionResult(amplitude * _pair_factor(bc),
                           _part_mean(bc, scalar_bracket))


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
