"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: usage errors exit 2 (argparse, or any
other ValueError), ArchError/DataFormatError exit 3, NumericalError exit 4.
"""


class ArchError(ValueError):
    """An architecture description is malformed or internally inconsistent."""


class DataFormatError(ValueError):
    """A data file does not match its expected on-disk format."""


class NumericalError(ArithmeticError):
    """A numeric computation produced NaN/Inf or otherwise diverged."""
