"""Exception types shared across the package, and how they quote input."""

import reprlib

_EXCERPT = reprlib.Repr()
_EXCERPT.maxlevel = 1


def excerpt(value):
    """repr(value) cut short for an error message, however large the value:
    long strings and numbers are elided, containers show a few items."""
    return _EXCERPT.repr(value)


class FieldMismatch(ValueError):
    """Operands live over different field orders."""


class ParseError(ValueError):
    """Polynomial text could not be parsed; carries the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class InvalidInput(ValueError):
    """A documented precondition was violated; the message names it."""
