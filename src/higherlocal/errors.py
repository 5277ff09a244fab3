"""Exception hierarchy shared by all modules.

Truncated arithmetic cannot decide every predicate; the exceptions below
distinguish "provably wrong" (ZeroDivisionSeries, LevelMismatch, ...) from
"not decidable at this precision" (UndeterminedLeadingTerm,
InsufficientPrecision, UndeterminedPivot, Unstabilized).
"""


class HigherLocalError(Exception):
    """Base class for all library errors."""


class LevelMismatch(HigherLocalError):
    """Operands live over towers of different heights."""


class ZeroDivisionSeries(HigherLocalError, ZeroDivisionError):
    """Inversion of an element that is exactly zero."""


class UndeterminedLeadingTerm(HigherLocalError):
    """The stored window is too small to certify a nonzero leading term."""


class InsufficientPrecision(HigherLocalError):
    """A required coefficient lies outside every guaranteed window."""


class UndeterminedPivot(HigherLocalError):
    """Elimination hit a column with no certified pivot candidate."""

    def __init__(self, column, message=None):
        self.column = column
        super().__init__(message or f"no certified pivot in column {column}")


class NotFlat(HigherLocalError):
    """Curvature does not vanish (certified nonzero component)."""


class NotClosed(HigherLocalError):
    """A 1-form in the frame tuple has nonvanishing exterior derivative."""


class NotIndependent(HigherLocalError):
    """The frame tuple's component matrix is singular."""


class FieldMismatch(HigherLocalError):
    """Connections over different tower fields were combined."""


class Unstabilized(HigherLocalError):
    """Window dimensions did not settle within the window schedule."""

    def __init__(self, report, message=None):
        self.report = report
        super().__init__(message or "window dimensions did not stabilize")


class WindowTooLarge(HigherLocalError):
    """A window has more labels on a side than the limit it is checked against."""


class SearchExhausted(HigherLocalError):
    """Cyclic vector search ran out of candidates."""


class UnsupportedFrame(HigherLocalError):
    """Requested computation needs a frame shape outside the supported range."""


class SpecFileError(HigherLocalError):
    """Base class for input file validation problems."""


class SpecSyntaxError(SpecFileError):
    """Malformed input text; carries a 1-based line/column position."""

    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{message} at line {line}, column {column}")


class DimensionMismatch(SpecFileError):
    """Matrix or form dimensions disagree with the declared rank/level."""


class UnknownKey(SpecFileError):
    """Unrecognized key or section in an input file."""
