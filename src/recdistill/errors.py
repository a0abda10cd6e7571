"""Exception types shared across the package."""

import numpy as np


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


def first_row(bad, t, x) -> str:
    """Location of the first point flagged in `bad` (shape x.shape[:-1]):
    its row index when x holds several points, its step and the point, so
    that an error names one particle rather than the whole batch."""
    x = np.asarray(x)
    lead = x.shape[:-1]
    i = np.unravel_index(np.argmax(np.broadcast_to(bad, lead)), lead)
    row = "" if not lead else f"row {i[0] if len(i) == 1 else tuple(int(v) for v in i)}: "
    return f"{row}t={np.broadcast_to(t, lead)[i]}, xt={x[i]}"


class DivergenceError(RuntimeError):
    """A distillation run produced unbounded particles."""
