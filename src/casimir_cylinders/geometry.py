"""Cylinder pair geometry and the boundary letters of each pair.

Two infinite parallel cylinders of radii ``a`` and ``b`` at surface-to-surface
separation ``d``.  In the interior configuration cylinder a sits inside
cylinder b (eccentric annulus); in the exterior configuration the cylinders
are side by side.  The center distance delta is ``b - a - d`` (interior) or
``a + b + d`` (exterior) and is positive in both cases.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from numbers import Integral, Real

from .errors import DomainError, InvalidGeometry


class Kind(enum.Enum):
    INTERIOR = "interior"
    EXTERIOR = "exterior"


class BoundaryPair(enum.Enum):
    """Boundary conditions on (cylinder a, cylinder b).

    DD/NN/DN/ND are Dirichlet/Neumann combinations.  PCPC and PCIP are the
    perfect-conductor combinations for the electromagnetic field, valid only
    where the field splits into independent TM and TE scalar parts
    (proximity expansions): PCPC is DD + NN, PCIP is DN + ND.
    """

    DD = "DD"
    NN = "NN"
    DN = "DN"
    ND = "ND"
    PCPC = "PCPC"
    PCIP = "PCIP"


SCALAR_PAIRS = (BoundaryPair.DD, BoundaryPair.NN, BoundaryPair.DN, BoundaryPair.ND)

# composite -> its (TM, TE) scalar parts
COMPOSITE_PAIRS = {
    BoundaryPair.PCPC: (BoundaryPair.DD, BoundaryPair.NN),
    BoundaryPair.PCIP: (BoundaryPair.DN, BoundaryPair.ND),
}


def scalar_parts(bc: BoundaryPair) -> tuple[BoundaryPair, ...]:
    """The scalar pairs whose results sum to bc's: (bc,) for a scalar pair."""
    return COMPOSITE_PAIRS.get(bc, (bc,))


def finite_real(value) -> bool:
    """True for a finite real number but a bool, numpy scalars included."""
    return (isinstance(value, Real) and not isinstance(value, bool)
            and math.isfinite(value))


def integer(value) -> bool:
    """True for an integer but a bool, numpy integers included."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def neumann(bc: BoundaryPair) -> tuple[bool, bool]:
    """Whether the letter on cylinder a, and on cylinder b, is Neumann.

    Every constant of a scalar pair is read off these two letters; a
    composite pair has no letters of its own and raises DomainError.
    """
    if not isinstance(bc, BoundaryPair):
        raise DomainError(f"bc must be a BoundaryPair, got {bc!r}")
    if bc not in SCALAR_PAIRS:
        raise DomainError(
            f"{bc} is a composite pairing; compose it from scalar results")
    return bc.value[0] == "N", bc.value[1] == "N"


@dataclass(frozen=True)
class CylinderPair:
    """Geometry of the pair; every result in the package is reported per
    unit cylinder length.  a, b and d may be any real numbers but bools,
    numpy scalars included, and are stored as floats."""

    kind: Kind
    a: float
    b: float
    d: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, Kind):
            raise InvalidGeometry(f"kind must be a Kind, got {self.kind!r}")
        for name in ("a", "b", "d"):
            v = getattr(self, name)
            if not (finite_real(v) and v > 0):
                raise InvalidGeometry(f"{name} must be a positive finite number, got {v!r}")
            object.__setattr__(self, name, float(v))   # no float32 arithmetic
        if self.kind == Kind.INTERIOR and self.a + self.d >= self.b:
            raise InvalidGeometry(
                f"interior pair needs a + d < b, got a={self.a}, d={self.d}, b={self.b}")

    @property
    def span(self) -> float:
        """Center distance at contact (d = 0): b - a interior, a + b exterior."""
        return self.b - self.a if self.kind is Kind.INTERIOR else self.a + self.b

    @property
    def delta(self) -> float:
        """Center-to-center distance: b - a - d interior, a + b + d exterior."""
        return self.span - self.d if self.kind is Kind.INTERIOR else self.span + self.d
