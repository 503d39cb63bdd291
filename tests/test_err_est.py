"""err_est is a bound: coarse runs against tight references.

Every reference was computed once with the N-doubling driver this package
used before the truncation was read off the Cholesky row tail: a=1, b=2,
rel_tol 1e-6, N = 152/112/40 (interior; 80 for the d=0.5 forces) and
136/96/64 (exterior) for d = 0.2/0.3/0.5, 256 xi nodes for energies and
512 for forces, each with its own err_est at most 2.8e-7 of the value.
"""
import pytest

from casimir_cylinders import (
    BoundaryPair,
    CylinderPair,
    Kind,
    casimir_energy_exact,
    casimir_force_exact,
)

# (quantity, kind, pair, d, value per length at rel_tol 1e-6)
_REFS = [
    ("energy", Kind.INTERIOR, BoundaryPair.DD, 0.2, -1.048406061882086),
    ("force", Kind.INTERIOR, BoundaryPair.DD, 0.2, -12.235290157239145),
    ("energy", Kind.INTERIOR, BoundaryPair.DD, 0.3, -0.41550943653925176),
    ("force", Kind.INTERIOR, BoundaryPair.DD, 0.3, -3.0732326242903403),
    ("energy", Kind.INTERIOR, BoundaryPair.DD, 0.5, -0.14359683521527558),
    ("force", Kind.INTERIOR, BoundaryPair.DD, 0.5, -0.5419063433692469),
    ("energy", Kind.INTERIOR, BoundaryPair.NN, 0.2, -0.9571763899594884),
    ("force", Kind.INTERIOR, BoundaryPair.NN, 0.2, -11.502663659523767),
    ("energy", Kind.INTERIOR, BoundaryPair.NN, 0.3, -0.367714855342699),
    ("force", Kind.INTERIOR, BoundaryPair.NN, 0.3, -2.822355381279667),
    ("energy", Kind.INTERIOR, BoundaryPair.NN, 0.5, -0.12147350311564006),
    ("force", Kind.INTERIOR, BoundaryPair.NN, 0.5, -0.4799719146695585),
    ("energy", Kind.INTERIOR, BoundaryPair.DN, 0.2, 1.0076154436849172),
    ("force", Kind.INTERIOR, BoundaryPair.DN, 0.2, 11.214748981137438),
    ("energy", Kind.INTERIOR, BoundaryPair.DN, 0.3, 0.4224171882502556),
    ("force", Kind.INTERIOR, BoundaryPair.DN, 0.3, 2.8804045507637355),
    ("energy", Kind.INTERIOR, BoundaryPair.DN, 0.5, 0.16373257299874383),
    ("force", Kind.INTERIOR, BoundaryPair.DN, 0.5, 0.5284061375832696),
    ("energy", Kind.INTERIOR, BoundaryPair.ND, 0.2, 0.797604520404664),
    ("force", Kind.INTERIOR, BoundaryPair.ND, 0.2, 9.820288104491917),
    ("energy", Kind.INTERIOR, BoundaryPair.ND, 0.3, 0.2971977705946414),
    ("force", Kind.INTERIOR, BoundaryPair.ND, 0.3, 2.374145110437011),
    ("energy", Kind.INTERIOR, BoundaryPair.ND, 0.5, 0.09221641327289191),
    ("force", Kind.INTERIOR, BoundaryPair.ND, 0.5, 0.3923213493729797),
    ("energy", Kind.EXTERIOR, BoundaryPair.DD, 0.2, -0.5302338810519626),
    ("force", Kind.EXTERIOR, BoundaryPair.DD, 0.2, -6.587092139262057),
    ("energy", Kind.EXTERIOR, BoundaryPair.DD, 0.3, -0.19383820599273568),
    ("force", Kind.EXTERIOR, BoundaryPair.DD, 0.3, -1.6016332306748333),
    ("energy", Kind.EXTERIOR, BoundaryPair.DD, 0.5, -0.05476584921149012),
    ("force", Kind.EXTERIOR, BoundaryPair.DD, 0.5, -0.27048627820163745),
    ("energy", Kind.EXTERIOR, BoundaryPair.NN, 0.2, -0.4030577767390935),
    ("force", Kind.EXTERIOR, BoundaryPair.NN, 0.2, -5.472925892702636),
    ("energy", Kind.EXTERIOR, BoundaryPair.NN, 0.3, -0.13199086428984505),
    ("force", Kind.EXTERIOR, BoundaryPair.NN, 0.3, -1.2294769837638537),
    ("energy", Kind.EXTERIOR, BoundaryPair.NN, 0.5, -0.030650232258135332),
    ("force", Kind.EXTERIOR, BoundaryPair.NN, 0.5, -0.17959129383340697),
    ("energy", Kind.EXTERIOR, BoundaryPair.DN, 0.2, 0.4304185204631426),
    ("force", Kind.EXTERIOR, BoundaryPair.DN, 0.2, 5.504217002006633),
    ("energy", Kind.EXTERIOR, BoundaryPair.DN, 0.3, 0.15177698042158824),
    ("force", Kind.EXTERIOR, BoundaryPair.DN, 0.3, 1.3081398637652772),
    ("energy", Kind.EXTERIOR, BoundaryPair.DN, 0.5, 0.0399995837752064),
    ("force", Kind.EXTERIOR, BoundaryPair.DN, 0.5, 0.21116205638915542),
    ("energy", Kind.EXTERIOR, BoundaryPair.ND, 0.2, 0.4021612040456239),
    ("force", Kind.EXTERIOR, BoundaryPair.ND, 0.2, 5.265917042504963),
    ("energy", Kind.EXTERIOR, BoundaryPair.ND, 0.3, 0.1377038553341377),
    ("force", Kind.EXTERIOR, BoundaryPair.ND, 0.3, 1.2258168307736204),
    ("energy", Kind.EXTERIOR, BoundaryPair.ND, 0.5, 0.03441642945981034),
    ("force", Kind.EXTERIOR, BoundaryPair.ND, 0.5, 0.19026885496598098),
]


@pytest.mark.parametrize("rel_tol", [1e-2, 1e-3])
@pytest.mark.parametrize(
    "quantity,kind,bc,d,ref", _REFS,
    ids=[f"{q}-{k.value}-{bc.name}-{d}" for q, k, bc, d, _ in _REFS])
def test_err_est_bounds_tight_reference(quantity, kind, bc, d, ref, rel_tol):
    fn = casimir_energy_exact if quantity == "energy" else casimir_force_exact
    res = fn(CylinderPair(kind, 1.0, 2.0, d), bc, rel_tol)
    assert res.err_est <= rel_tol * abs(res.value_per_length)
    assert abs(res.value_per_length - ref) <= res.err_est
