"""Exception types raised across the package."""


class NimCashError(Exception):
    """Base class for all errors raised by this package."""


class EmptySet(NimCashError):
    """A move set must contain at least one value."""


class NonPositiveValue(NimCashError):
    """Move amounts must be integers >= 1, stone counts and budgets integers >= 0."""


class DuplicateValue(NimCashError):
    """Move sets reject duplicates instead of silently merging them."""


class IllegalMove(NimCashError):
    """The requested move is not legal in the given state."""


class ResourceLimit(NimCashError):
    """The position exceeds the configured solver bound."""


class OutOfRange(NimCashError):
    """A query fell outside the range a table was built for."""


class BadParams(NimCashError):
    """Family or sweep parameters are malformed."""
