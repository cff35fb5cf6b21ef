"""Exception types shared across the package."""


class NildistError(Exception):
    """Base class for every error raised deliberately by this package."""


class WordSyntaxError(NildistError):
    """Malformed word expression.  Carries the offending input position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownGeneratorError(WordSyntaxError):
    pass


class ExponentOverflowError(WordSyntaxError):
    pass


class InputError(NildistError, ValueError):
    """An argument the caller has to change: a rank, class or Hirsch cap out
    of range, a negative radius, the exponent of the trivial element.  The
    CLI reports it as a usage error; any other ValueError is a fault."""


class CapExceededError(NildistError):
    """A configured resource cap was hit (Hirsch length, element count,
    elimination events).  Caps fail loudly; nothing is truncated silently."""


class InternalInconsistencyError(NildistError):
    """The engine reached a state that no valid input can produce."""
