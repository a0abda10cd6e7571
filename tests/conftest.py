import numpy as np
import pytest

from recdistill.estimator import tweedie_x0
from recdistill.schedule import build_schedule
from recdistill.worldmodel import PoseLabeledMixture, category_posterior, score


@pytest.fixture(scope="session")
def schedule():
    return build_schedule(1000)


@pytest.fixture(scope="session")
def biased_1d():
    """Two well-separated 1D modes carrying 0.8 / 0.2 of the mass."""
    return PoseLabeledMixture(
        weights=np.array([0.8, 0.2]),
        means=np.array([[-3.0], [3.0]]),
        covs=np.array([[[1.0]], [[1.0]]]),
        category_of=np.array([0, 1]),
        num_categories=2,
    )


@pytest.fixture(scope="session")
def balanced_1d():
    return PoseLabeledMixture(
        weights=np.array([0.5, 0.5]),
        means=np.array([[-3.0], [3.0]]),
        covs=np.array([[[1.0]], [[1.0]]]),
        category_of=np.array([0, 1]),
        num_categories=2,
    )


@pytest.fixture(scope="session")
def mixed_2d():
    """A 2D three-component mixture spanning two categories."""
    return PoseLabeledMixture(
        weights=np.array([0.5, 0.3, 0.2]),
        means=np.array([[-2.0, 0.0], [2.0, 1.0], [0.0, -2.5]]),
        covs=np.array([
            [[1.0, 0.3], [0.3, 0.8]],
            [[0.6, -0.1], [-0.1, 0.9]],
            [[0.5, 0.0], [0.0, 0.4]],
        ]),
        category_of=np.array([0, 1, 1]),
        num_categories=2,
    )


def random_mixture(rng, dim, num_categories, diagonal=False):
    """Small random but well-conditioned pose-labeled mixture; `diagonal`
    zeroes the covariances' off-diagonal entries (to +0.0 or -0.0) and
    draws the same numbers otherwise."""
    n_comp = num_categories + rng.integers(0, 3)
    w = rng.dirichlet(np.ones(n_comp) * 5.0)
    means = rng.uniform(-3.0, 3.0, size=(n_comp, dim))
    covs = np.empty((n_comp, dim, dim))
    for k in range(n_comp):
        a = rng.standard_normal((dim, dim)) * 0.3
        covs[k] = a @ a.T + np.eye(dim) * rng.uniform(0.3, 1.0)
    if diagonal:
        covs *= np.eye(dim)
    cats = np.concatenate([
        np.arange(num_categories),
        rng.integers(0, num_categories, size=n_comp - num_categories),
    ])
    return PoseLabeledMixture(
        weights=w, means=means, covs=covs,
        category_of=cats, num_categories=num_categories,
    )


def mean_noisy_posterior(m, schedule, t, n_samples, seed):
    """Monte Carlo mean of p(category | xt) over n_samples draws from the
    time-t marginal: clean mixture samples, noised at step t >= 1."""
    rng = np.random.default_rng(seed)
    xt = m.sample(n_samples, rng)
    if t > 0:
        xt = schedule.alpha[t] * xt + schedule.sigma[t] * rng.standard_normal((n_samples, m.dim))
    return np.mean(category_posterior(m, schedule, t, xt), axis=0)


def eps_pretrain(m, schedule, t, xt):
    """The prior's exact noise prediction at step(s) t: -sigma_t times the score."""
    return -schedule.sigma[t][..., None] * score(m, schedule, t, xt)


def source_posterior(rect, m, schedule, t, xt):
    """p_t(c | xt) from the rectifier's posterior source, at the points xt
    as given: the exact time-t posterior, the clean posterior of the
    Tweedie estimate (t >= 1), or the clean posterior of xt itself."""
    if rect.posterior_source == "exact-mixture":
        return category_posterior(m, schedule, t, xt)
    if rect.posterior_source == "classifier-on-tweedie":
        xt = tweedie_x0(schedule, t, xt, eps_pretrain(m, schedule, t, xt))
    return category_posterior(m, None, 0, xt)
