"""Exception types shared across the package.

Everything user-facing derives from KostantError so callers (and the CLI)
can catch bad input uniformly.  InternalCancellationFailure is deliberately
outside that umbrella: it signals an arithmetic bug in this library, not a
bad input, and should never be swallowed.
"""

from __future__ import annotations


class KostantError(Exception):
    """Base class for all input-level errors raised by this package."""


class RankTooSmall(KostantError, ValueError):
    """The requested rank is below the minimum for the given family."""


class DimensionMismatch(KostantError, ValueError):
    """A weight vector's length does not match the root system's rank."""


class InvalidSupport(KostantError, ValueError):
    """A support specification violates the placement rules for its family."""


class ZeroDistribution(KostantError, ValueError):
    """A polynomial that should induce a probability distribution is zero."""


class DegenerateDistribution(KostantError, ValueError):
    """A distribution has zero variance, so normalized statistics are undefined."""


class FoldTooLarge(KostantError):
    """A lattice-fold box exceeds the cell budget, so it is refused up front."""


class NonRationalResult(KostantError, ArithmeticError):
    """A quantity expected to be rational retained an irrational part."""


class InternalCancellationFailure(RuntimeError):
    """A surd part that must cancel identically failed to do so.

    This indicates a defect in the library's own arithmetic rather than in
    the caller's input, hence not a KostantError.
    """
