"""Small-gap expansions of the Casimir interaction.

Energy and force behave as  amplitude * (1 + bracket * d)  for d -> 0,
where the amplitude is the closed-form PFA leading term and the bracket
collects the next-to-leading coefficient.  The bracket is read off the
pair's two boundary letters from four exact constants, evaluated only on
request, so tests can check coefficient arithmetic without float
round-off.  A composite pair is the sum of its scalar parts: its
amplitude is theirs summed and, the parts' amplitudes being equal, its
bracket their mean.

Letter rule (span = b - a, s1 = 1 interior; span = a + b, s1 = -1 exterior):

    theta_1 = s1 * A / span + K * span/(a*b) - R_a/a + s1 * R_b/b

Every pair takes A = SPAN_INV and K = MIXED_RATIONAL; both letters N add
MIXED_PI2/pi^2 to K; where the letters differ, the Neumann cylinder's R
(R_a or R_b, the other being 0) is RADIUS_PI2/pi^2.  The force takes 3/5
of every term; the cylinder-plate limit b -> infinity keeps K/a - R_a/a.
"""

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DomainError
from .geometry import (
    SCALAR_PAIRS,
    BoundaryPair,
    CylinderPair,
    Kind,
    finite_real,
    neumann,
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


# the paper's energy bracket constants, combined by the letter rule above
SPAN_INV = Fraction(7, 12)
MIXED_RATIONAL = Fraction(7, 36)
MIXED_PI2 = Fraction(-40, 3)
RADIUS_PI2 = Fraction(160, 21)

# F = -dE/dd of amplitude * d^{-5/2} * (1 + theta d) is (5/2) amplitude
# d^{-7/2} * (1 + (3/5) theta d): every force constant is 3/5 of energy's
FORCE_FACTOR = Fraction(3, 5)


def _letter_terms(part: BoundaryPair, factor: Fraction
                  ) -> tuple[float, float, float, float]:
    """(A, K, R_a, R_b) of the letter rule for part, each times factor."""
    a_n, b_n = neumann(part)
    mixed = float(factor * MIXED_RATIONAL)
    if a_n and b_n:
        mixed += float(factor * MIXED_PI2) / _PI2
    radius = float(factor * RADIUS_PI2) / _PI2 if a_n != b_n else 0.0
    return (float(factor * SPAN_INV), mixed, radius if a_n else 0.0,
            radius if b_n else 0.0)


def _part_mean(bc: BoundaryPair, scalar_bracket) -> float:
    """Bracket of bc as the mean of scalar_bracket over its scalar parts.

    The parts' leading amplitudes are equal, so the amplitude-weighted mean
    that the sum of the parts calls for is the plain one.
    """
    parts = scalar_parts(bc)
    return sum(scalar_bracket(part) for part in parts) / len(parts)


def _bracket(pair: CylinderPair, bc: BoundaryPair, factor: Fraction) -> float:
    """NTLO bracket of bc at pair, the energy's constants times factor."""
    a, b, span = pair.a, pair.b, pair.span
    s1 = 1.0 if pair.kind is Kind.INTERIOR else -1.0

    def scalar_bracket(part: BoundaryPair) -> float:
        span_inv, mixed, on_a, on_b = _letter_terms(part, factor)
        # a radius term that is 0 adds a signed zero, which keeps the bits
        return (s1 * span_inv / span + mixed * span / (a * b)
                - on_a / a + s1 * on_b / b)

    return _part_mean(bc, scalar_bracket)


def energy_expansion(pair: CylinderPair, bc: BoundaryPair) -> ExpansionResult:
    """E/L ~ amplitude*(1 + bracket*d) with amplitude ~ d^(-5/2)."""
    bracket = _bracket(pair, bc, Fraction(1))
    return ExpansionResult(pfa_force_leading(pair, bc) * (2.0 * pair.d / 5.0),
                           bracket)


def force_expansion(pair: CylinderPair, bc: BoundaryPair) -> ExpansionResult:
    """F/L ~ amplitude*(1 + bracket*d) with amplitude ~ d^(-7/2).

    The amplitude reuses the PFA closed form, so the two agree bit for bit.
    """
    bracket = _bracket(pair, bc, FORCE_FACTOR)
    return ExpansionResult(pfa_force_leading(pair, bc), bracket)


def cylinder_plate_limit(a: float, bc: BoundaryPair) -> ExpansionResult:
    """b -> infinity limit: cylinder of radius a facing a plate.

    Both geometries collapse onto the same expansion; the amplitude field
    carries the d-independent coefficient of d^(-7/2).  a may be any real
    number but a bool, as for ``CylinderPair``.
    """
    if not (finite_real(a) and a > 0):
        raise DomainError(f"radius a must be positive and finite, got {a!r}")
    a = float(a)    # no float32 arithmetic

    def scalar_bracket(part: BoundaryPair) -> float:
        # span/(a*b) -> 1/a; the 1/span and 1/b terms vanish
        _, mixed, on_a, _ = _letter_terms(part, FORCE_FACTOR)
        return mixed / a - on_a / a

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
    cp = cylinder_plate_limit(a, bc).bracket   # DomainError for a bad a
    if not (finite_real(b_large) and b_large >= 1e3 * a):
        raise DomainError(
            f"b_large must be finite and at least 10^3 a, got {b_large!r}")
    deviation = 0.0
    for kind in (Kind.INTERIOR, Kind.EXTERIOR):
        pair = CylinderPair(kind, a, b_large, a)
        finite = force_expansion(pair, bc).bracket
        deviation = max(deviation, a * abs(finite - cp))
    return deviation
