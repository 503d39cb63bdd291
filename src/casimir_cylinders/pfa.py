"""Proximity force approximation for parallel cylinders.

The PFA slices the facing surfaces into parallel-plate strips and applies
the plate pressure -pi^2/(240 h^4) at the local gap width h(theta), measured
from a point on the integration surface to the other cylinder's surface.
Two entry points, each returning the force per unit length as a float:
the full surface integral, and the closed-form leading term it approaches
as d -> 0.  A composite pair's force is the sum of its scalar parts'.
"""

import math

import numpy as np

from .geometry import BoundaryPair, CylinderPair, Kind, neumann, scalar_parts
from .errors import DomainError
from .quadrature import integrate_finite

_REL_TOL = 1e-11        # of the surface integral's Gauss-Legendre ladder


def _pair_factor(bc: BoundaryPair) -> float:
    """Multiplier relative to the DD force: the sum over bc's scalar parts,
    where a mixed pair (letters differ) is repulsive and weaker by 7/8."""
    return sum(-7.0 / 8.0 if a_n != b_n else 1.0
               for a_n, b_n in map(neumann, scalar_parts(bc)))


def _leading_amplitude(pair: CylinderPair) -> float:
    """The DD force per unit length of the d -> 0 limit; DomainError where
    it is not a finite double (a gap so small that d^3.5 underflows)."""
    gap_power = pair.d ** 3.5
    if gap_power > 0.0:
        amplitude = (-math.pi ** 3 * math.sqrt(pair.a * pair.b)
                     / (768.0 * math.sqrt(2.0 * pair.span) * gap_power))
        if math.isfinite(amplitude):
            return amplitude
    raise DomainError(f"gap d={pair.d!r} too small: the PFA amplitude "
                      "~ d^-3.5 is not a finite double")


def pfa_force_integral(pair: CylinderPair, bc: BoundaryPair) -> float:
    """PFA force per unit length from the exact surface integral.

    The gap profile is h(theta) = sqrt(R^2 + delta^2 - 2 R delta cos(theta)) - r
    where R is the radius of the integration surface, r the other radius and
    delta the center-to-center distance.  Interior pairs integrate over the
    outer cylinder (radius b).  Exterior pairs integrate over the larger of
    the two so the result is exactly symmetric under a <-> b.

    Near theta = 0 that difference cancels to the gap d, so h is evaluated
    in the equivalent form

        h = (d (|R - delta| + r) + 4 R delta sin^2(theta/2)) / (dist + r),
        dist^2 = (R - delta)^2 + 4 R delta sin^2(theta/2),

    which uses |R - delta| - r = d (true for both kinds) and has no
    cancelling term.
    """
    _leading_amplitude(pair)    # DomainError where d^-3.5 is not a double
    delta = pair.delta
    if pair.kind is Kind.INTERIOR:
        surf_r, other_r = pair.b, pair.a
    else:
        surf_r, other_r = max(pair.a, pair.b), min(pair.a, pair.b)
    offset = abs(surf_r - delta)
    near = pair.d * (offset + other_r)

    def inv_gap4(theta):
        lift = 4.0 * surf_r * delta * np.sin(0.5 * theta) ** 2
        dist = np.sqrt(offset * offset + lift)
        return ((near + lift) / (dist + other_r)) ** -4.0

    value, _ = integrate_finite(inv_gap4, 0.0, math.pi, _REL_TOL)
    return -(math.pi ** 2) * surf_r / 240.0 * value * _pair_factor(bc)


def pfa_force_leading(pair: CylinderPair, bc: BoundaryPair) -> float:
    """Closed-form d -> 0 limit of the PFA force per unit length."""
    return _leading_amplitude(pair) * _pair_factor(bc)
