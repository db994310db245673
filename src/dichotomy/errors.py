"""Exception types shared across the package."""


class DichotomyError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DichotomyError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DataError(DomainError):
    """Input data is malformed: a file, a game or curve spec, or a table row."""


class RangeError(DomainError, OverflowError):
    """Finite inputs whose sum leaves the float range."""


class CapacityError(DichotomyError):
    """A request exceeds an enumeration or table-size cap."""


class SingularSystemError(DichotomyError, ArithmeticError):
    """A denominator of a closed-form solution degenerates."""


class InvariantViolation(DichotomyError):
    """A mathematical guarantee of the library was observed to fail."""
