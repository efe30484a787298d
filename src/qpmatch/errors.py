"""Exception types and the count check shared across the package."""

import numbers


class DomainError(ValueError):
    """Raised when an input violates a documented precondition."""


class ResourceError(RuntimeError):
    """Raised when a request exceeds a hard size or memory limit."""


def _is_integer(value) -> bool:
    """A Python or numpy integer, not a bool."""
    # type() first: an ABC isinstance costs about 0.7 us, and trial_rng checks two counts per trial.
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_integer(value) and value >= 0
