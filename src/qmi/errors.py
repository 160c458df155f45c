"""Exception types shared across the toolkit.

Every error raised on a user-facing path is a subclass of QmiError, so
callers (and the CLI) can distinguish "the computation said no" from a
genuine bug.
"""

from __future__ import annotations


class QmiError(Exception):
    """Base class for all toolkit errors."""


class DivisionByZero(QmiError):
    """Denominator is the zero polynomial."""


class SubstitutionPole(QmiError):
    """A substitution sent a denominator to zero."""


class NotDivisible(QmiError):
    """Exact polynomial division was requested but leaves a remainder."""


class UnknownRoot(QmiError):
    """A root sign was given for a symbol that is not a declared root."""


class UnknownSymbol(QmiError):
    """An expression used a name the context has not declared."""


class ParseError(QmiError):
    """Malformed expression text.

    Carries the 0-based character position of the offending token.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class OrderCapExceeded(QmiError):
    """Group closure exceeded the element cap; generators are suspect."""


class NotFiniteOrder(QmiError):
    """A matrix failed to reach the identity within the order guard."""


class InconsistentAction(QmiError):
    """An action table failed an internal consistency check."""


class SchemaError(QmiError):
    """A catalog document violates the schema.

    Carries a JSON-pointer-ish path to the offending element.
    """

    def __init__(self, message: str, path: str = "") -> None:
        super().__init__(f"{message} [{path}]" if path else message)
        self.path = path


class UnknownCase(QmiError):
    """A case id was requested that the catalog does not contain."""


class FactorizationLimit(QmiError, ValueError):
    """Trial division gave up; input exceeds the factoring bound (a ValueError too)."""
