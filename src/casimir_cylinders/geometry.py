"""Cylinder pair geometry and the derived small-separation parameters.

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

from .errors import InvalidGeometry


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


@dataclass(frozen=True)
class CylinderPair:
    """Geometry of the pair; every result in the package is reported per
    unit cylinder length."""

    kind: Kind
    a: float
    b: float
    d: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "d"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise InvalidGeometry(f"{name} must be a positive finite number, got {v!r}")
        if self.kind == Kind.INTERIOR and self.a + self.d >= self.b:
            raise InvalidGeometry(
                f"interior pair needs a + d < b, got a={self.a}, d={self.d}, b={self.b}")


@dataclass(frozen=True)
class DerivedParams:
    """Center distance and the dimensionless expansion parameters.

    alpha = a/(b-a) and beta = alpha + 1 = b/(b-a) only make sense for the
    interior configuration and are None otherwise.  eps = d/(b-a) interior,
    d/(a+b) exterior; the short-distance expansions are series in eps.
    """

    delta: float
    alpha: float | None
    beta: float | None
    eps: float


def derive_params(pair: CylinderPair) -> DerivedParams:
    a, b, d = pair.a, pair.b, pair.d
    if pair.kind == Kind.INTERIOR:
        gap = b - a
        return DerivedParams(delta=gap - d, alpha=a / gap, beta=b / gap, eps=d / gap)
    return DerivedParams(delta=a + b + d, alpha=None, beta=None, eps=d / (a + b))
