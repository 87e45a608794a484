"""Exception types shared by all effinfo modules."""


class EffinfoError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EffinfoError, ValueError):
    """An input object or document violates a construction invariant."""


class UndefinedOutputError(EffinfoError):
    """A quantity was requested for an output the system cannot produce.

    The actual repertoire divides by p(y); for p(y) = 0 it is undefined,
    so this is an error rather than a silent zero.
    """


class EnumerationCapError(EffinfoError):
    """A dataset length l is past the cap on the 2^l-pattern sweep and table."""
