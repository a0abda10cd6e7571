"""Clean-point estimation and the per-interval EMA tracker of the
category marginal.

The diffusion range [1, T] is split into ``n_t`` equal intervals; each
interval owns one EMA'd probability vector, because adjacent steps have
nearly identical category marginals and a per-step EMA would update far
too rarely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, first_row
from .schedule import DiffusionSchedule


def tweedie_x0(schedule: DiffusionSchedule, t, xt, eps_pred) -> np.ndarray:
    """Posterior-mean denoising estimate (xt - sigma_t * eps) / alpha_t.

    t is one step, or one step per row of xt (shape (n,) against (n, d)).
    """
    t = np.asarray(t)
    if (t < 1).any():
        raise ValueError("tweedie_x0 needs t >= 1")
    a = schedule.alpha[t][..., None]
    if (a < 1e-300).any():
        raise NumericError(f"alpha underflow at {first_row(a[..., 0] < 1e-300, t, xt)}")
    xt = np.asarray(xt, dtype=float)
    eps_pred = np.asarray(eps_pred, dtype=float)
    out = (xt - schedule.sigma[t][..., None] * eps_pred) / a
    if not np.isfinite(out).all():
        raise NumericError(f"non-finite clean estimate at {first_row(~np.isfinite(out).all(axis=-1), t, xt)}")
    return out


def alpha_from_n_ema(n_ema: int) -> float:
    """Smallest rate giving the last n_ema updates at least 90% total weight."""
    if n_ema < 1:
        raise ValueError("n_ema must be at least 1")
    return 1.0 - 0.1 ** (1.0 / n_ema)


@dataclass
class IntervalEma:
    """One EMA'd simplex vector per block of diffusion steps.

    Single-writer state: the distillation loop updates it; readers take
    `snapshot` copies.
    """

    num_steps: int
    n_t: int
    values: np.ndarray       # (n_t, K)
    alpha_ema: float

    def __post_init__(self):
        if self.num_steps % self.n_t != 0:
            raise ValueError(f"T={self.num_steps} is not divisible by n_t={self.n_t}")
        if not 0.0 < self.alpha_ema <= 1.0:
            raise ValueError("alpha_ema must lie in (0, 1]")

    @property
    def n_s(self) -> int:
        return self.num_steps // self.n_t

    @classmethod
    def create(cls, num_steps: int, n_t: int, num_categories: int, n_ema: int = 100) -> "IntervalEma":
        """Fresh state: every interval starts at the uniform distribution."""
        values = np.full((n_t, num_categories), 1.0 / num_categories)
        return cls(num_steps=num_steps, n_t=n_t, values=values, alpha_ema=alpha_from_n_ema(n_ema))

    def interval_of(self, t):
        """Interval index of step t (or of each step in an array of steps)."""
        return np.minimum(t // self.n_s, self.n_t - 1)

    def snapshot(self) -> np.ndarray:
        return self.values.copy()


def ema_update(state: IntervalEma, t: int, observed) -> None:
    """Blend an observed probability vector into the interval containing t."""
    if not 1 <= t <= state.num_steps:
        raise ValueError(f"t={t} outside [1, {state.num_steps}]")
    observed = np.asarray(observed, dtype=float)
    if observed.shape != state.values.shape[1:] or abs(observed.sum() - 1.0) > 1e-9:
        raise ValueError("observed vector must be on the probability simplex")
    i = state.interval_of(t)
    state.values[i] = state.alpha_ema * observed + (1.0 - state.alpha_ema) * state.values[i]


def ema_lookup(state: IntervalEma, t) -> np.ndarray:
    """Current estimate for the interval containing t (index clamped); one
    row per step when t is an array."""
    return state.values[state.interval_of(t)].copy()
