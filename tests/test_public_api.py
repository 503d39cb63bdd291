"""The package's public surface: what `__all__` names, and what is gone."""
import dataclasses

import casimir_cylinders
from casimir_cylinders import CylinderPair, ExpansionResult
from casimir_cylinders.oracle import PerturbationPoint

# names deleted from the package; none may come back by accident
_REMOVED = ("PfaMethod", "PfaResult", "ExpansionKind", "DerivedParams",
            "derive_params", "ENERGY_BRACKETS", "FORCE_BRACKETS",
            "gauss_hermite", "integrate_finite", "RoundTripMatrix",
            "build_matrix", "log_det_one_minus")


def test_all_names_resolve():
    missing = [name for name in casimir_cylinders.__all__
               if not hasattr(casimir_cylinders, name)]
    assert missing == []


def test_removed_names_are_gone():
    for name in _REMOVED:
        assert name not in casimir_cylinders.__all__
        assert not hasattr(casimir_cylinders, name)


def test_result_and_input_fields():
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(ExpansionResult) == ("amplitude", "bracket")
    assert names(CylinderPair) == ("kind", "a", "b", "d")
    assert names(PerturbationPoint) == ("s", "m", "tau", "eps", "alpha")
