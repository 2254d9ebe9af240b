"""Exception hierarchy shared across the package, and the integer check
every document parser runs.

Errors that indicate a violated precondition of an operation (as opposed to
malformed input documents) all derive from PreconditionError so the CLI can
map them to a single exit code.
"""


class GFCanonError(Exception):
    """Base class for all package errors."""


class ParseError(GFCanonError):
    """Malformed input document (bad JSON, bad schema, bad literal)."""


def require_ints(values, what: str) -> list[int]:
    """The values of a parsed document as a list, each a plain int: a float,
    a bool or a numeric string is refused, never reduced mod p."""
    out = list(values)
    for x in out:
        if type(x) is not int:
            raise ParseError(f"{what} must be integers, got {x!r}")
    return out


class PreconditionError(GFCanonError):
    """An operation's stated precondition does not hold."""


class NotPrimeError(ParseError):
    pass


class ZeroInverseError(PreconditionError):
    pass


class SingularMatrixError(PreconditionError):
    pass


class DimensionMismatchError(PreconditionError):
    pass


class FieldMismatchError(PreconditionError):
    pass


class NotMonicError(PreconditionError):
    pass


class ZeroPolynomialError(PreconditionError):
    pass


class InadmissibleTransformError(PreconditionError):
    """The slice-mixing matrix makes a I + b Phi_chi singular for some chi."""


class WrongSliceCountError(PreconditionError):
    pass


class FieldTooSmallError(PreconditionError):
    """No slice mix can clear the infinite blocks over this field.

    Carries the offending block list so callers can report it.
    """

    def __init__(self, message, blocks=None):
        super().__init__(message)
        self.blocks = blocks


class NotRegularError(PreconditionError):
    """Input tensor is not regular.  Carries the three slice-family ranks."""

    def __init__(self, message, ranks):
        super().__init__(message)
        self.ranks = tuple(ranks)


class UnsupportedShapeError(PreconditionError):
    pass


class BudgetExceededError(PreconditionError):
    pass


class FieldTooLargeForSearchError(PreconditionError):
    pass


class WitnessError(GFCanonError):
    """A constructed witness failed its internal verification (a bug)."""
