"""Exception types and the count check shared across the package."""

import numbers


class DomainError(ValueError):
    """Raised when an input violates a documented precondition."""


class ResourceError(RuntimeError):
    """Raised when a request exceeds a hard size or memory limit."""


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0
