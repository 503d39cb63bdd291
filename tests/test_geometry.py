import math

import pytest

from casimir_cylinders import (
    BoundaryPair,
    CylinderPair,
    InvalidGeometry,
    Kind,
    derive_params,
)
from casimir_cylinders.geometry import (
    COMPOSITE_PAIRS,
    SCALAR_PAIRS,
    scalar_parts,
)


def test_interior_derived_params():
    pair = CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1)
    p = derive_params(pair)
    assert math.isclose(p.delta, 0.9, rel_tol=0, abs_tol=1e-15)
    assert p.alpha == 1.0
    assert p.beta == 2.0
    assert math.isclose(p.eps, 0.1, rel_tol=1e-15)


def test_exterior_derived_params():
    pair = CylinderPair(Kind.EXTERIOR, 1.0, 2.0, 0.1)
    p = derive_params(pair)
    assert p.delta == 3.1
    assert p.alpha is None
    assert p.beta is None
    assert math.isclose(p.eps, 0.1 / 3.0, rel_tol=1e-15)


def test_interior_beta_is_alpha_plus_one_exactly():
    p = derive_params(CylinderPair(Kind.INTERIOR, 0.7, 2.9, 0.3))
    assert p.beta == p.alpha + 1.0


@pytest.mark.parametrize("bad", [
    dict(a=-1.0, b=2.0, d=0.1),
    dict(a=0.0, b=2.0, d=0.1),
    dict(a=1.0, b=2.0, d=0.0),
    dict(a=1.0, b=2.0, d=math.inf),
    dict(a=1.0, b=2.0, d=math.nan),
])
def test_positive_finite_required(bad):
    with pytest.raises(InvalidGeometry):
        CylinderPair(Kind.INTERIOR, **bad)


def test_interior_needs_room_for_the_gap():
    with pytest.raises(InvalidGeometry):
        CylinderPair(Kind.INTERIOR, 1.0, 2.0, 1.0)   # a + d == b
    with pytest.raises(InvalidGeometry):
        CylinderPair(Kind.INTERIOR, 1.5, 2.0, 0.6)
    # the same numbers are fine side by side
    CylinderPair(Kind.EXTERIOR, 1.5, 2.0, 0.6)


def test_exterior_allows_any_radii_order():
    small_in_front = CylinderPair(Kind.EXTERIOR, 0.1, 5.0, 0.2)
    big_in_front = CylinderPair(Kind.EXTERIOR, 5.0, 0.1, 0.2)
    assert derive_params(small_in_front).delta == derive_params(big_in_front).delta


def test_boundary_pair_split():
    assert set(SCALAR_PAIRS) == {BoundaryPair.DD, BoundaryPair.NN,
                                 BoundaryPair.DN, BoundaryPair.ND}
    # each composite is its (TM, TE) scalar parts
    assert COMPOSITE_PAIRS == {
        BoundaryPair.PCPC: (BoundaryPair.DD, BoundaryPair.NN),
        BoundaryPair.PCIP: (BoundaryPair.DN, BoundaryPair.ND),
    }
    for bc in SCALAR_PAIRS:
        assert scalar_parts(bc) == (bc,)
    for bc, parts in COMPOSITE_PAIRS.items():
        assert scalar_parts(bc) == parts
