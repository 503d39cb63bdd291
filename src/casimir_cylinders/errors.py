"""Exception types shared across the package."""


class CasimirCylError(Exception):
    """Base class for all package-specific errors."""


class InvalidGeometry(CasimirCylError):
    """Radii/separation do not describe a valid cylinder pair."""


class DomainError(CasimirCylError):
    """Argument outside the domain of a special function."""


class NoConvergence(CasimirCylError):
    """An iterative scheme hit its limit before reaching the tolerance."""


class PSumNoConvergence(NoConvergence):
    """The azimuthal round-trip sum did not converge within the index cap."""


class NonPositiveDeterminant(CasimirCylError):
    """1 - M not positive definite; the matrix is outside the valid regime."""
