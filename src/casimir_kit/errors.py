"""Exception and warning types shared across the package."""


class CasimirKitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CasimirKitError, ValueError):
    """Input text could not be parsed; the message names the offending token."""


class DomainError(CasimirKitError, ValueError):
    """A value is outside the mathematical or physical domain of an operation."""


class UnsupportedArgumentError(DomainError):
    """An argument is syntactically valid but outside the supported set."""


class ImplausibleGapWarning(UserWarning):
    """Plate gap is valid but outside the physically plausible SI range."""
