"""Exception types shared across the package.

The CLI maps these onto process exit codes, so each class carries one:
validation problems exit 2, bad parameters and points on divisors exit 3,
exhausted node or factoring budgets exit 4.
"""


class DynHeightError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(DynHeightError):
    """Input violates a structural contract (not a morphism, bad grammar, ...)."""

    exit_code = 2


class NonCommutingError(ValidationError):
    """Two systems were required to commute and do not."""


class BadParameterError(DynHeightError):
    """Parameter lies outside the good locus."""

    exit_code = 3


class PointOnDivisorError(DynHeightError):
    """Point lies on the divisor of the requested local height."""

    exit_code = 3


class IndeterminatePointError(DynHeightError):
    """A lift evaluated to zero in every coordinate."""

    exit_code = 3


class BudgetExceededError(DynHeightError):
    """A word-tree walk would exceed its node budget, or factoring its rho cap."""

    exit_code = 4
