"""Exception types shared across the library.

The CLI maps these onto exit codes: ConfigError -> 2, NumericError -> 3,
NoDataError -> 4.
"""


class DimensionError(ValueError):
    """Vector or matrix lengths do not match."""


class InvalidBatchError(ValueError):
    """Batch is empty or references rows outside the dataset."""


class UnsupportedTaskError(ValueError):
    """Operation does not apply to this task kind."""


class NumericError(ArithmeticError):
    """Non-finite value encountered during optimization.  For a stack of runs,
    rows holds one bool per run, True where the run passed the failing check;
    None when that is not known."""

    def __init__(self, message: str, step: int | None = None, rows=None):
        super().__init__(message)
        self.step = step
        self.rows = rows


class ConfigError(ValueError):
    """Invalid or unknown configuration."""


class NoDataError(RuntimeError):
    """No usable run data found."""
