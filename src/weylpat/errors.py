"""Exception types shared across the package."""

__all__ = [
    "WeylError",
    "InvalidCartanType",
    "GroupMismatchError",
    "NotComparableError",
    "NotAnInversionSetError",
    "CapExceededError",
    "InternalInvariantError",
]


class WeylError(Exception):
    """Base class for all package errors."""


class InvalidCartanType(WeylError, ValueError):
    """Cartan type string is malformed or names an unsupported rank."""


class GroupMismatchError(WeylError, ValueError):
    """Operands belong to different root systems."""


class NotComparableError(WeylError, ValueError):
    """The pair is not comparable in Bruhat order."""


class NotAnInversionSetError(WeylError, ValueError):
    """The given set of positive roots is not biconvex, hence not an inversion set."""


class CapExceededError(WeylError, RuntimeError):
    """A request is past the enumeration cap or a fixed size of the tables:
    64 positive roots for a group's masks, 2^16 distinct values for a KL table."""


class InternalInvariantError(WeylError, RuntimeError):
    """An internal consistency check failed; this indicates a bug, not bad input."""
