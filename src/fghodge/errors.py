"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: bad input (UsageError)
exits 2, failed mathematical checks exit 1, resource guards exit 3.
"""

from __future__ import annotations


class FghodgeError(Exception):
    """Base class for all package errors."""


class UsageError(FghodgeError):
    """Input outside the contract: an unknown type or rank, a malformed
    argument, a matrix model that is deliberately not built (the standard
    representation of an exceptional type), or an operation called with
    arguments it does not take."""


class IntegrityError(FghodgeError):
    """An internal invariant failed; indicates a bug, not bad user input."""


class ResourceLimitError(FghodgeError):
    """A configurable resource guard (rank, dimension) was exceeded."""
