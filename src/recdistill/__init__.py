"""Marginal-rectified score distillation on analytic toy generative models.

The package provides a variance-preserving diffusion schedule, a
pose-labeled Gaussian mixture world model with closed-form scores, a
marginal-constrained density rectifier, a training-free pose classifier on
a synthetic glyph corpus, and a score-distillation engine (SDS / VSD / USD
/ CTRL) with supporting estimators, metrics, and brute-force oracles.
"""

from .errors import (
    ConfigurationError,
    DivergenceError,
    NumericError,
    SegmentationError,
)
from .schedule import DiffusionSchedule, build_schedule, loss_weight, perturb
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
    "perturb",
    "PoseLabeledMixture",
    "Renderer",
    "Rectifier",
    "TargetMarginal",
]
