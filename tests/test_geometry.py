import math

import numpy as np
import pytest

from casimir_cylinders import (
    BoundaryPair,
    CylinderPair,
    DomainError,
    InvalidGeometry,
    Kind,
)
from casimir_cylinders.geometry import (
    COMPOSITE_PAIRS,
    SCALAR_PAIRS,
    neumann,
    scalar_parts,
)
from casimir_cylinders.oracle import _kappa, _swap_args
from casimir_cylinders.pfa import _pair_factor
from casimir_cylinders.scattering import _XiTables

DD, NN, DN, ND = SCALAR_PAIRS


def test_center_distance():
    assert math.isclose(CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1).delta,
                        0.9, rel_tol=0, abs_tol=1e-15)
    assert CylinderPair(Kind.EXTERIOR, 1.0, 2.0, 0.1).delta == 3.1


def test_span_is_the_center_distance_at_contact():
    # delta at d = 0: b - a interior, a + b exterior
    assert CylinderPair(Kind.INTERIOR, 1.0, 2.5, 0.1).span == 1.5
    assert CylinderPair(Kind.EXTERIOR, 1.0, 2.5, 0.1).span == 3.5


@pytest.mark.parametrize("bad", [
    dict(a=-1.0, b=2.0, d=0.1),
    dict(a=0.0, b=2.0, d=0.1),
    dict(a=1.0, b=2.0, d=0.0),
    dict(a=1.0, b=2.0, d=math.inf),
    dict(a=1.0, b=2.0, d=math.nan),
    dict(a=True, b=2.0, d=0.1),
    dict(a=1.0, b=2.0, d=True),
    dict(a="1.0", b=2.0, d=0.1),
    dict(a=1.0, b=None, d=0.1),
    dict(a=1.0, b=2.0, d=0.1j),
])
def test_positive_finite_required(bad):
    with pytest.raises(InvalidGeometry):
        CylinderPair(Kind.INTERIOR, **bad)


def test_numpy_scalars_are_accepted_as_floats():
    # one rule for numeric arguments: any real but bool, stored as a float,
    # so a float32 radius does no float32 arithmetic
    pair = CylinderPair(Kind.INTERIOR, np.int64(1), np.float32(2.0), 0.1)
    assert pair == CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1)
    assert all(type(v) is float for v in (pair.a, pair.b, pair.d))
    assert type(pair.delta) is float


def test_kind_must_be_a_kind():
    # a string kind used to pass every check and then fail every
    # `is Kind.INTERIOR` test, computing the exterior pair in silence
    with pytest.raises(InvalidGeometry, match="kind must be a Kind"):
        CylinderPair("interior", 1.0, 2.0, 0.1)


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
    assert small_in_front.delta == big_in_front.delta


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


def test_neumann_letters():
    assert [neumann(bc) for bc in SCALAR_PAIRS] == [
        (False, False), (True, True), (False, True), (True, False)]
    for bc in COMPOSITE_PAIRS:
        with pytest.raises(DomainError, match="composite"):
            neumann(bc)
    for bc in ("DD", None):
        with pytest.raises(DomainError, match="bc must be a BoundaryPair"):
            neumann(bc)


@pytest.mark.parametrize("alpha", [0.05, 0.7, 1.0, 2.3, 41.5])
def test_letter_rule_reproduces_the_pair_tables(alpha):
    # each table as it was written out pair by pair before the letters
    # carried it
    beta = alpha + 1.0
    kappa = {DD: 0.0, NN: 1.0 / beta, DN: -alpha / beta, ND: 1.0}
    for bc, want in kappa.items():
        assert math.isclose(_kappa(bc, alpha, beta), want, rel_tol=1e-14)
    swapped = {bc for bc in SCALAR_PAIRS if _swap_args(bc, 1, 2) == (2, 1)}
    assert swapped == {NN, ND}
    mixed = {bc for bc in SCALAR_PAIRS if len(set(neumann(bc))) == 2}
    assert mixed == {DN, ND}
    pair = CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1)
    for bc, sign, factor in ((DD, 1.0, 1.0), (NN, 1.0, 1.0),
                             (DN, -1.0, -0.875), (ND, -1.0, -0.875)):
        assert _XiTables(pair, bc, np.array([1.0]), 0).sign == sign
        assert _pair_factor(bc) == factor
