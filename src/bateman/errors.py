"""Exception types shared across the package."""


class BatemanError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BatemanError, ValueError):
    """Input outside the admissible parameter domain."""


class OverdampedError(DomainError):
    """Raised when 4*m*k <= gamma**2; only the underdamped regime is supported."""


class DimensionMismatch(BatemanError, ValueError):
    """Operands have incompatible shapes."""


class NumericalError(BatemanError, ArithmeticError):
    """A numeric evaluation overflowed or failed to converge."""


class SeriesDivergence(BatemanError, ValueError):
    """A series representation is divergent for the requested parameter."""


class FitError(BatemanError, ValueError):
    """Not enough samples for a least-squares fit."""


class HeadroomError(BatemanError, ValueError):
    """Quantum numbers too close to the truncation boundary."""


class RadicalMismatch(BatemanError, ValueError):
    """Sum of exact scalars carrying different surd factors."""
