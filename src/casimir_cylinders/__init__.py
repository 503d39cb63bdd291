"""Casimir interaction of two parallel cylinders, interior or exterior.

Exact energies and forces from the round-trip determinant, the proximity
force approximation, short-distance expansions with their next-to-leading
brackets, and the Gaussian-chain machinery that validates those brackets.
Units: hbar = c = 1; every result is per unit cylinder length.
"""

from .asymptotics import (
    ExpansionResult,
    PfaBias,
    classify_pfa_bias,
    cylinder_plate_limit,
    energy_expansion,
    force_expansion,
    limit_consistency_check,
)
from .errors import (
    CasimirCylError,
    DomainError,
    InvalidGeometry,
    NoConvergence,
    NonPositiveDeterminant,
    PSumNoConvergence,
)
from .geometry import BoundaryPair, CylinderPair, Kind
from .pfa import pfa_force_integral, pfa_force_leading
from .scattering import EnergyResult, casimir_energy_exact, casimir_force_exact

__version__ = "0.1.0"

__all__ = [
    "BoundaryPair",
    "CasimirCylError",
    "CylinderPair",
    "DomainError",
    "EnergyResult",
    "ExpansionResult",
    "InvalidGeometry",
    "Kind",
    "NoConvergence",
    "NonPositiveDeterminant",
    "PSumNoConvergence",
    "PfaBias",
    "casimir_energy_exact",
    "casimir_force_exact",
    "classify_pfa_bias",
    "cylinder_plate_limit",
    "energy_expansion",
    "force_expansion",
    "limit_consistency_check",
    "pfa_force_integral",
    "pfa_force_leading",
    "__version__",
]
