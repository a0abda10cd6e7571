"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration value or malformed config file."""


class SegmentationError(RuntimeError):
    """Foreground segmentation failed (degenerate feature grid) for row
    ``row`` of an image stack."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class NumericError(ArithmeticError):
    """A non-finite intermediate was produced; carries location context."""


class DivergenceError(RuntimeError):
    """A distillation run produced unbounded particles."""
