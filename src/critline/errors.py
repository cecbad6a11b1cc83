"""Exception hierarchy shared by all critline modules, and the one overflow refusal."""

import numpy as np


class CritlineError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class SieveRangeError(CritlineError, ValueError):
    """Argument exceeds the prime sieve limit."""

    code = "sieve_range"


class PoleError(CritlineError, ArithmeticError):
    """Evaluation requested exactly at a pole."""

    code = "pole"


class DomainError(CritlineError, ValueError):
    """Argument outside the mathematical domain of the operation."""

    code = "domain"


class ConstraintError(CritlineError, ValueError):
    """A structural constraint (e.g. P(0)=0) is violated."""

    code = "constraint"


class ConditioningError(CritlineError, ArithmeticError):
    """Requested evaluation is too ill-conditioned to certify."""

    code = "conditioning"


class AccuracyError(CritlineError, ArithmeticError):
    """A quadrature or iteration failed to reach the requested accuracy."""

    code = "accuracy"


class ConfigError(CritlineError, ValueError):
    """Invalid run configuration."""

    code = "config"


def finite(value, what: str):
    """value itself when every entry is finite; else DomainError "{what} overflows a double"."""
    if not np.isfinite(value).all():
        raise DomainError(f"{what} overflows a double")
    return value
