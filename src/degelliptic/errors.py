"""Exception hierarchy.

Exit-code contract for the CLI: config/input problems exit 2, numeric
failures exit 3, verification failures exit 4.  Every error may carry
``diagnostics``, the failure context the CLI prints after its message.
"""

from __future__ import annotations

__all__ = [
    "DegellipticError",
    "ConfigError",
    "BranchError",
    "ThresholdError",
    "DomainViolationError",
    "UnsupportedDiscretizationError",
    "NumericError",
    "VerificationError",
]


class DegellipticError(Exception):
    exit_code = 1

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(DegellipticError):
    """Invalid parameters, domains, or requests (exit 2)."""

    exit_code = 2


class BranchError(ConfigError):
    """Operation asked for on the wrong side of the gradient exponent p=1."""


class ThresholdError(ConfigError):
    """Ball radius above the existence threshold radius.

    ``gap`` is the (positive) minimum over s of the profile at ``radius``,
    i.e. how far the profile stays above zero there.
    """

    def __init__(self, message: str, gap: float, radius: float):
        super().__init__(message, {"gap": gap, "radius": radius})
        self.gap = gap
        self.radius = radius


class DomainViolationError(ConfigError):
    """Input outside an operation's domain (negative radius, matrix off the
    required cone, point outside the domain closure, ...)."""


class UnsupportedDiscretizationError(ConfigError):
    """Operator/Hamiltonian combination the grid solver cannot discretize
    monotonically."""


class NumericError(DegellipticError):
    """Computation started but did not reach its tolerance (exit 3)."""

    exit_code = 3


class VerificationError(DegellipticError):
    """A verification suite failed its tolerance (exit 4)."""

    exit_code = 4
