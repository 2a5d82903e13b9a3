"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes, so new error conditions should
reuse one of the classes below rather than raising bare ValueErrors.
"""


class MechError(Exception):
    """Base class for all package errors."""


class InstanceFormatError(MechError):
    """Instance or profile file cannot be parsed into the data model."""


class ValidationFailure(MechError):
    """Instance violates a structural assumption (bad params, lonely link)."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations or [])


class MessageShapeError(MechError):
    """Message profile malformed: wrong keys, negative entries, missing rho."""


class SharingAssumptionError(MechError):
    """Optimal allocation leaves fewer than two groups active on a link."""


class SolverError(MechError):
    """Interior-point solve failed to reach the requested residual tolerance."""


class EquilibriumError(MechError):
    """Equilibrium construction inconsistent (dual residuals, scaling != 1)."""


class DegenerateInstanceError(MechError):
    """The candidate fails the local curvature check at the given coupling weights."""
