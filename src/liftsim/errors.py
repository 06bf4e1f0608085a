"""Exception types shared across the library."""

from contextlib import contextmanager


class LiftsimError(Exception):
    """Base class for all library errors."""


class DomainError(LiftsimError):
    """Mismatched or invalid domains (e.g. comparing distributions over different supports)."""


class FormatError(LiftsimError):
    """Malformed input text: a file or field that does not parse into its object."""


class NullEventError(LiftsimError):
    """Conditioning on an event of probability zero."""


class BudgetError(LiftsimError):
    """An exhaustive enumeration was refused because it exceeds a configured budget."""

    def __init__(self, what: str, size, limit):
        super().__init__(f"{what}: size {size} exceeds budget {limit}")
        self.what = what
        self.size = size
        self.limit = limit


class InvariantError(LiftsimError):
    """An internal invariant that is a theorem was violated; indicates a bug or bad input."""


def json_int(value, what: str) -> int:
    """value, if it is a JSON integer (an int but not a bool); else a
    FormatError, so that no loader rounds 1.9 or true to an int."""
    if type(value) is not int:
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


@contextmanager
def malformed(what: str):
    """Re-raise what parsing `what` raises for bad input as a FormatError."""
    try:
        yield
    except (LookupError, TypeError, ValueError, AttributeError, ZeroDivisionError,
            OverflowError, RecursionError) as e:
        raise FormatError(f"malformed {what}: {type(e).__name__}: {e}") from None
