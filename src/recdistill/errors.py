"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration value or malformed config file."""


class SegmentationError(RuntimeError):
    """Foreground segmentation failed (degenerate feature grid)."""


class NumericError(ArithmeticError):
    """A non-finite intermediate was produced; carries location context."""


class DivergenceError(RuntimeError):
    """A distillation run produced unbounded particles."""
