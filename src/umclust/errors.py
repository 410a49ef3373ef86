"""Exception types shared across the package.

The CLI maps these onto exit codes: numerical failures exit 3, every
other package error (config, input, shape, checkpoint) exits 2.
"""


class UmclustError(Exception):
    """Base class for all package errors."""


class ConfigError(UmclustError):
    """Bad, missing, or unknown configuration content."""


class DataError(UmclustError):
    """Invalid dataset content or on-disk format violation."""


class ShapeError(UmclustError):
    """Array shape incompatible with the requested operation."""


class NumericalError(UmclustError):
    """Non-finite value produced where finiteness is required."""


class CheckpointError(UmclustError):
    """Unreadable checkpoint or checkpoint/config mismatch."""
