"""Marginal-rectified score distillation on analytic toy generative models.

The package provides a variance-preserving diffusion schedule, a
pose-labeled Gaussian mixture world model with closed-form scores, a
marginal-constrained density rectifier, a training-free pose classifier on
a synthetic glyph corpus, and a score-distillation engine (SDS / VSD / USD
/ CTRL) with supporting estimators, metrics, and brute-force oracles.
"""

# numpy >= 2 imports numpy.random on first use; `distill` and `glyphs` draw
# from it, so load it with the package rather than inside their first run
import numpy.random  # noqa: F401

from .errors import (
    ConfigurationError,
    DivergenceError,
    NumericError,
    SegmentationError,
)
from .schedule import DiffusionSchedule, build_schedule, loss_weight
from .worldmodel import PoseLabeledMixture, Renderer
from .rectify import Rectifier, TargetMarginal

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DivergenceError",
    "NumericError",
    "SegmentationError",
    "DiffusionSchedule",
    "build_schedule",
    "loss_weight",
    "PoseLabeledMixture",
    "Renderer",
    "Rectifier",
    "TargetMarginal",
]
