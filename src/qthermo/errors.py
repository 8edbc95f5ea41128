"""Exception hierarchy for the qthermo package.

Every error raised by the library derives from :class:`QThermoError` so that
callers (in particular the CLI) can map failures to exit codes in one place.
"""


class QThermoError(Exception):
    """Base class for all qthermo errors."""


class NonHermitianInput(QThermoError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class NonFinite(QThermoError):
    """A computation produced NaN or infinity."""


class BadDimension(QThermoError):
    """An operator has a dimension the operation does not support."""


class NegativeFrequency(QThermoError):
    """Spectral density evaluated at a negative frequency."""


class NonPositiveInput(QThermoError):
    """A strictly positive quantity (frequency, temperature) was not."""


class PositivityViolation(QThermoError):
    """A density matrix has an eigenvalue below the allowed floor."""


class NoConvergence(QThermoError):
    """A limit or a search has no converged value: no steady state, or a
    maximum not bracketed by its grid."""


class PureStateSingularity(QThermoError):
    """Bloch-form expressions are singular at (numerically) pure states."""


class ResolutionLimit(QThermoError):
    """A result is below what float64 resolves: a measurement's Fisher
    information exceeds the QFI of the same states, a measurement basis
    population rounds below 0, or two levels' rates break detailed balance."""


class ParseError(QThermoError):
    """Config file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(QThermoError):
    """A configuration value is missing, unknown, or out of range."""

    def __init__(self, key, message=""):
        self.key = key
        super().__init__(f"{key}: {message}" if message else key)
