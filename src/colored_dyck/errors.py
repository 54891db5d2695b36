"""Exception hierarchy shared across the package."""


class ColoredDyckError(Exception):
    """Base class for all errors raised by this package."""


class NotDyck(ColoredDyckError):
    """The step text violates the prefix condition or is unbalanced."""


class BadAscent(ColoredDyckError):
    """A maximal ascent length is not divisible by a+b."""


class TruncatedDescent(ColoredDyckError):
    """Fewer down steps after an ascent than its block requires."""


class ColorOutOfRange(ColoredDyckError):
    """A color annotation exceeds the allowed count for its ascent size."""


class MalformedAnnotation(ColoredDyckError):
    """A color annotation is syntactically invalid or misplaced."""


class InvalidIndex(ColoredDyckError, ValueError):
    """The one error for an index argument (N, n, k, j, r, cap, ...)
    that is not an int or lies outside its defined range (e.g. k > n).
    It is also a ValueError, as the package's other argument checks
    raise, so an `except ValueError` catches it too."""


class NonIntegerTerm(ColoredDyckError):
    """An exact quotient that must be an integer left a remainder.

    This signals an implementation bug, never bad input: the formulas
    involved are integer-valued theorems.
    """


class InvalidTuple(ColoredDyckError):
    """A decomposition tuple violates its invariants."""


class EmptyWord(ColoredDyckError):
    """The empty word cannot be decomposed."""


class MalformedWord(ColoredDyckError):
    """A word has an item that is not a block (ColoredDyckWord), or is
    built for another (a, b) than it is read under (decompose)."""


class ResourceLimit(ColoredDyckError):
    """An enumeration exceeded its configured output cap or its code
    alphabet.  The CLI reports a table that cannot be allocated under
    the same name."""
