"""Marginal-constrained reweighting of the mixture prior.

A target category distribution f induces weights w(c) = f(c) / p(c); the
reweighted density p(x) * sum_c w(c) p(c|x) has category marginal exactly f.
The same construction applies at every diffusion step with the time-t
category marginal, and its log-gradient is the correction term added to
the distillation gradient by the marginal-rectified method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import worldmodel
from .errors import RectificationError
from .oracle import finite_difference_grad
from .worldmodel import PoseLabeledMixture

POSTERIOR_SOURCES = ("exact-mixture", "classifier-on-tweedie", "classifier-direct")
MARGINAL_SOURCES = ("ema", "exact-mc", "fixed-presampled")


@dataclass(frozen=True)
class TargetMarginal:
    """Desired category distribution; defaults to uniform."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if np.any(p < 0) or abs(np.sum(p) - 1.0) > 1e-12:
            raise ValueError("target marginal must be a probability vector")

    @classmethod
    def uniform(cls, k: int) -> "TargetMarginal":
        return cls(np.full(k, 1.0 / k))


@dataclass(frozen=True)
class Rectifier:
    """Configuration of the reweighting correction.

    The non-default posterior/marginal sources implement the degraded
    variants studied in the ablations: classifying noisy points directly,
    and freezing a pre-run estimate of the category marginal.
    """

    target: TargetMarginal
    posterior_source: str = "exact-mixture"
    marginal_source: str = "ema"
    epsilon_floor: float = 1e-4
    fd_step: float = 1e-3

    def __post_init__(self):
        if self.posterior_source not in POSTERIOR_SOURCES:
            raise ValueError(f"unknown posterior source {self.posterior_source!r}")
        if self.marginal_source not in MARGINAL_SOURCES:
            raise ValueError(f"unknown marginal source {self.marginal_source!r}")
        k = self.target.probs.size
        if not 0.0 < self.epsilon_floor < 1.0 / k:
            raise ValueError(f"epsilon_floor must lie in (0, 1/{k})")


def weight_function(target: TargetMarginal, marginal, epsilon_floor: float = 1e-4, apply_floor: bool = True) -> np.ndarray:
    """Per-category weights f(c) / p(c), with optional probability flooring."""
    p = np.asarray(marginal, dtype=float)
    f = target.probs
    if p.shape != f.shape:
        raise ValueError(f"marginal length {p.size} != target length {f.size}")
    if apply_floor:
        p = np.maximum(p, epsilon_floor)
    elif np.any(p < epsilon_floor):
        bad = int(np.argmin(p))
        raise RectificationError(
            f"category {bad} marginal {p[bad]:.3e} below floor {epsilon_floor:.1e} with flooring disabled"
        )
    return f / p


def rectified_density(m: PoseLabeledMixture, target: TargetMarginal, x) -> np.ndarray:
    """Reweighted clean density whose category marginal equals the target."""
    w = weight_function(target, m.category_weights())
    posterior = worldmodel.category_posterior(m, None, 0, x)
    return worldmodel.density(m, x) * np.sum(w * posterior, axis=-1)


def rectified_noisy_density(m: PoseLabeledMixture, schedule, t: int, target: TargetMarginal, xt) -> np.ndarray:
    """Reweighted time-t density; equals diffusing the clean reweighted density.

    The mixture's category marginal is preserved by the forward process, so
    the same weights apply at every step.
    """
    w = weight_function(target, m.category_weights())
    posterior = worldmodel.category_posterior(m, schedule, t, xt)
    return worldmodel.noisy_density(m, schedule, t, xt) * np.sum(w * posterior, axis=-1)


def r_value(rect: Rectifier, posterior, marginal) -> float:
    """Discrete correction factor sum_c f(c)/p(c) * posterior(c)."""
    posterior = np.asarray(posterior, dtype=float)
    w = weight_function(rect.target, marginal, rect.epsilon_floor)
    return float(np.sum(w * posterior, axis=-1))


def grad_log_r(rect: Rectifier, context, schedule, t: int, xt, marginal) -> np.ndarray:
    """Gradient of log r with respect to the noisy point.

    With the exact mixture posterior this is analytic: the score of the
    category-reweighted mixture minus the score of the original mixture,
    taken from one pass over the components.  Classifier-backed posteriors
    fall back to central finite differences of log r; the classifier is
    piecewise-smooth but has no cheap Jacobian.
    """
    xt = np.asarray(xt, dtype=float)
    if isinstance(context, PoseLabeledMixture):
        w = weight_function(rect.target, marginal, rect.epsilon_floor)
        with np.errstate(divide="ignore"):      # a zero target weight is log 0 = -inf
            log_w = np.log(w)
        out = worldmodel.grad_log_reweight(context, schedule, t, xt, log_w)
    else:
        # context: callable (t, x) -> posterior probability vector
        def log_r(x):
            return np.log(r_value(rect, context(t, x), marginal))

        h = rect.fd_step * (1.0 + float(np.linalg.norm(xt)))
        out = finite_difference_grad(log_r, xt, h)
    if not np.all(np.isfinite(out)):
        from .errors import NumericError

        raise NumericError(f"non-finite grad log r at t={t}, xt={xt}")
    return out
