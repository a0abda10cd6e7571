"""Marginal-constrained reweighting of the mixture prior.

A target category distribution f induces weights w(c) = f(c) / p(c); the
reweighted density p(x) * sum_c w(c) p(c|x) has category marginal exactly f.
The same construction applies at every diffusion step with the time-t
category marginal, and its log-gradient is the correction term added to
the distillation gradient by the marginal-rectified method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import worldmodel
from .errors import NumericError, first_row
from .estimator import tweedie_x0
from .worldmodel import PoseLabeledMixture

POSTERIOR_SOURCES = ("exact-mixture", "classifier-on-tweedie", "classifier-direct")
MARGINAL_SOURCES = ("ema", "exact-mc", "fixed-presampled")
FD_STEP = 1e-3          # the classifier sources' finite-difference step, relative to 1 + |xt|


@dataclass(frozen=True)
class TargetMarginal:
    """Desired category distribution; defaults to uniform."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if not np.all(p >= 0) or not abs(np.sum(p) - 1.0) <= 1e-12:         # NaN fails both
            raise ValueError(f"target marginal must be a finite probability vector, got {p.tolist()}")

    @classmethod
    def uniform(cls, k: int) -> "TargetMarginal":
        return cls(np.full(k, 1.0 / k))


@dataclass(frozen=True)
class Rectifier:
    """Configuration of the reweighting correction.

    classifier-on-tweedie (classify the Tweedie-denoised point) is the
    paper's posterior source and exact-mc the prior's true category
    marginal; classifier-direct (classify the noisy point) and
    fixed-presampled (freeze a pre-run marginal estimate) are the degraded
    ablations.  The defaults are the exact mixture posterior and the EMA.
    """

    target: TargetMarginal
    posterior_source: str = "exact-mixture"
    marginal_source: str = "ema"
    epsilon_floor: float = 1e-4

    def __post_init__(self):
        if self.posterior_source not in POSTERIOR_SOURCES:
            raise ValueError(f"unknown posterior source {self.posterior_source!r}")
        if self.marginal_source not in MARGINAL_SOURCES:
            raise ValueError(f"unknown marginal source {self.marginal_source!r}")
        k = self.target.probs.size
        if not 0.0 < self.epsilon_floor < 1.0 / k:
            raise ValueError(f"epsilon_floor must lie in (0, 1/{k})")


def weight_function(target: TargetMarginal, marginal, epsilon_floor: float) -> np.ndarray:
    """Per-category weights f(c) / max(p(c), epsilon_floor); one row per
    marginal row when marginal is (n, K)."""
    p = np.asarray(marginal, dtype=float)
    f = target.probs
    if p.shape[-1:] != f.shape:
        raise ValueError(f"marginal length {p.shape[-1]} != target length {f.size}")
    return f / np.maximum(p, epsilon_floor)


def rectified_density(m: PoseLabeledMixture, rect: Rectifier, x) -> np.ndarray:
    """Reweighted clean density whose category marginal equals the rectifier's target."""
    return rectified_noisy_density(m, None, 0, rect, x)


def rectified_noisy_density(m: PoseLabeledMixture, schedule, t: int, rect: Rectifier, xt) -> np.ndarray:
    """Reweighted time-t density; equals diffusing the clean reweighted density.

    The mixture's category marginal is preserved by the forward process, so
    the same weights, floored at the rectifier's epsilon_floor, apply at
    every step.
    """
    w = weight_function(rect.target, m.category_weights(), rect.epsilon_floor)
    posterior = worldmodel.category_posterior(m, schedule, t, xt)
    return worldmodel.noisy_density(m, schedule, t, xt) * np.sum(w * posterior, axis=-1)


def correction(rect: Rectifier, m: PoseLabeledMixture, schedule, t, xt, marginal,
               steps: worldmodel._Steps, eye: np.ndarray) -> tuple[np.ndarray, np.ndarray, worldmodel._Pass]:
    """grad log r at the noisy point(s), the posterior rows there, and the
    prior's `worldmodel._components` pass there.

    t, xt and marginal are one step, point (d,) and marginal (K,), or one
    of each per row; `steps` are the prior's noisy components at t
    (`worldmodel._steps`, or a run's `RunTables.at`) and `eye` the (d, d)
    identity.  The posterior source decides where the prior is evaluated.
    'exact-mixture' is the true time-t posterior, and grad log r the
    category-reweighted mixture's score minus this mixture's, both from
    the pass at xt.  The classifier sources mimic classifying images: they
    take central differences of log r over one stack of 2d + 1 blocks, xt,
    then xt + h e_j, then xt - h e_j with h = FD_STEP (1 + |xt|), and apply
    the clean posterior to every point of it.  'classifier-direct' applies
    it to the noisy points as they are, and makes the pass at xt
    separately; 'classifier-on-tweedie' applies it to the Tweedie-denoised
    points (t >= 1), whose noise predictions come from one pass over the
    whole stack, block 0 of which is the pass at xt.  A difference within a
    few ulps of log r is rounding noise from a saturated posterior and
    counts as zero, so that gradient-norm alignment cannot scale it up.  A
    non-finite gradient is a NumericError naming its first row.
    """
    xt = np.asarray(xt, dtype=float)
    w = weight_function(rect.target, marginal, rect.epsilon_floor)
    if rect.posterior_source == "exact-mixture":
        first = worldmodel._components(m, steps, xt)
        # a zero target weight is log 0 = -inf, without numpy's divide warning
        log_w = np.log(w) if np.count_nonzero(w) == w.size else np.log(w, out=np.full(w.shape, -np.inf), where=w != 0)
        out = worldmodel._grad_log_reweight(m, first, log_w)
        rows = worldmodel._category_posterior(m, first)
    else:
        d = xt.shape[-1]
        h = FD_STEP * (1.0 + np.sqrt(np.add.reduce(xt * xt, axis=-1)))     # np.linalg.norm's reduce
        step = h[..., None] * eye[(slice(None),) + (None,) * h.ndim]           # (d, ..., d): h e_j
        stack = np.concatenate([xt[None], xt + step, xt - step])
        if rect.posterior_source == "classifier-direct":
            first = worldmodel._components(m, steps, xt)
        else:
            noisy = worldmodel._components(m, steps, stack)
            first = worldmodel._Pass(*(a[0] for a in noisy))
            stack = tweedie_x0(schedule, t, stack, worldmodel._eps_pretrain(schedule, t, noisy))
        post = worldmodel.category_posterior(m, None, 0, stack)
        r = (w * post[1:]).sum(axis=-1)
        # r >= min(w) > 0 unless a target weight is 0; then log 0 = -inf, without numpy's divide warning
        log_r = np.log(r) if np.count_nonzero(w) == w.size else np.log(r, out=np.full(r.shape, -np.inf), where=r != 0)
        fp, fm = log_r[:d], log_r[d:]                                         # (d, ...)
        finite = np.isfinite(fp) & np.isfinite(fm)
        if not finite.all():
            bad = ~finite.all(axis=0)
            j = int(np.argmin(finite.reshape(d, -1)[:, np.argmax(bad)]))
            raise NumericError(f"non-finite log r along axis {j} at {first_row(bad, t, xt)}")
        rounding = 4.0 * np.finfo(float).eps * (1.0 + np.abs(fp) + np.abs(fm))
        out = (np.where(np.abs(fp - fm) <= rounding, 0.0, fp - fm) / (2.0 * h)).transpose((*range(1, fp.ndim), 0))
        rows = post[0]
    if not np.isfinite(out).all():
        raise NumericError(f"non-finite grad log r at {first_row(~np.isfinite(out).all(axis=-1), t, xt)}")
    return out, rows, first


def grad_log_r(rect: Rectifier, m: PoseLabeledMixture, schedule, t, xt, marginal) -> np.ndarray:
    """Gradient of log r with respect to the noisy point(s); see `correction`."""
    return correction(rect, m, schedule, t, xt, marginal, worldmodel._steps(m, schedule, t),
                      np.eye(np.shape(xt)[-1]))[0]
