"""Exception types, and the integer rule is_int, shared across the package.

Everything user-facing derives from KostantError so callers (and the CLI)
can catch bad input uniformly.  InternalCancellationFailure is deliberately
outside that umbrella: it signals an arithmetic bug in this library, not a
bad input, and should never be swallowed.
"""

from __future__ import annotations

import math
import sys


def is_int(x) -> bool:
    """x is an int and not a bool, which would otherwise pass as 0 or 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def count_text(n: int) -> str:
    """n >= 0 in decimal for an error message, or ~10**e past CPython's
    int-to-text digit limit (sys.set_int_max_str_digits), a conversion that
    costs time quadratic in the length: n is converted only at 3 bits or
    fewer per allowed digit, so with fewer digits than the limit."""
    if n.bit_length() <= 3 * (sys.get_int_max_str_digits() or 4300):
        return str(n)
    return f"~10**{round(math.log10(n))}"


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
    """A lattice fold exceeds the cell or bit budget, so it is refused up front."""


class ListingTooLarge(KostantError):
    """A root listing exceeds the entry budget, so it is refused up front."""


class NonRationalResult(KostantError, ArithmeticError):
    """A quantity expected to be rational retained an irrational part."""


class InternalCancellationFailure(RuntimeError):
    """A surd part that must cancel identically failed to do so.

    This indicates a defect in the library's own arithmetic rather than in
    the caller's input, hence not a KostantError.
    """
