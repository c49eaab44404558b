"""Exception and warning types shared across the package."""


class QpotError(Exception):
    """Base class for all package errors."""


class DomainError(QpotError):
    """A coordinate or parameter lies outside the physically valid domain."""


class ConfigError(QpotError):
    """Invalid configuration value or malformed config file."""


class GridError(QpotError):
    """Grids are incompatible or under-resolved for the requested operation."""


class NormalizationError(QpotError):
    """Wavefunction norm is zero or otherwise unusable."""


class EmptyFieldError(QpotError):
    """Every grid point of a derived field was masked invalid."""


class NumericsError(QpotError):
    """A linear solve or time step produced non-finite values."""


class TruncationWarning(UserWarning):
    """Non-negligible probability mass falls outside the grid."""
