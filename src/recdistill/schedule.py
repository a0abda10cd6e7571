"""Variance-preserving forward-process coefficients and loss weighting.

The forward process perturbs clean data as ``alpha_t * x0 + sigma_t * eps``
with ``alpha_t**2 + sigma_t**2 == 1``.  A linear-beta schedule is used:
``alpha_t = sqrt(prod_{s<=t}(1 - beta_s))`` with ``beta_s`` interpolated
linearly between ``beta_min`` and ``beta_max``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class DiffusionSchedule:
    """Coefficients of the variance-preserving forward process.

    ``alpha`` and ``sigma`` have length ``num_steps + 1``; index 0 is the
    clean-data endpoint (alpha=1, sigma=0), and every later step adds noise.
    """

    num_steps: int
    alpha: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        T = self.num_steps
        if self.alpha.shape != (T + 1,) or self.sigma.shape != (T + 1,):
            raise ConfigurationError("alpha/sigma must have length num_steps + 1")
        vp = self.alpha**2 + self.sigma**2
        if np.max(np.abs(vp - 1.0)) > 1e-12:
            raise ConfigurationError("schedule is not variance-preserving")
        if np.any(np.diff(self.alpha) > 0) or np.any(np.diff(self.sigma) < 0):
            raise ConfigurationError("alpha must be non-increasing and sigma non-decreasing")
        if self.alpha[0] < 0.999 or self.sigma[T] < 0.99:
            raise ConfigurationError(
                "schedule endpoints out of range: need alpha[0] >= 0.999 and sigma[T] >= 0.99"
            )
        # noise predictions divide by sigma_t**2; sigma never falls, so sigma[1] decides every t >= 1
        if not self.sigma[1] ** 2 > 0.0:
            raise ConfigurationError(f"sigma[1] = {self.sigma[1]}: the first noisy step adds no noise")


def build_schedule(T: int, beta_min: float = 1e-4, beta_max: float = 0.02) -> DiffusionSchedule:
    """Build a linear-beta variance-preserving schedule with T steps."""
    if T < 2:
        raise ConfigurationError(f"need at least 2 steps, got T={T}")
    if not (0.0 < beta_min < beta_max < 1.0):
        raise ConfigurationError(
            f"betas must satisfy 0 < beta_min < beta_max < 1, got ({beta_min}, {beta_max})"
        )
    betas = np.linspace(beta_min, beta_max, T)
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    alpha = np.sqrt(alpha_bar)
    sigma = np.sqrt(1.0 - alpha_bar)
    return DiffusionSchedule(num_steps=T, alpha=alpha, sigma=sigma)


def loss_weight(schedule: DiffusionSchedule, kind: str = "sigma-squared") -> np.ndarray:
    """Weighting omega(t) over steps, indexed by t: constant one or sigma_t**2.

    Entries for t in [1, T] are positive, as the schedule has sigma_t**2 > 0
    there; index 0 (clean data) is unused.
    """
    if kind == "constant-one":
        return np.ones(schedule.num_steps + 1)
    if kind == "sigma-squared":
        return schedule.sigma**2
    raise ConfigurationError(f"unknown omega_kind {kind!r}; choose constant-one or sigma-squared")
