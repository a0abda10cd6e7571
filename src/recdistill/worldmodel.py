"""Pose-labeled Gaussian mixture prior with closed-form noisy statistics.

The mixture stands in for a pretrained generative prior: every quantity the
distillation loop needs (density, score, noise prediction, category
posterior) is exact.  Forward diffusion of a component N(mu, Sigma) at step t
is N(alpha_t * mu, alpha_t^2 * Sigma + sigma_t^2 * I), so the noisy
distribution is again a mixture with unchanged component weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .schedule import DiffusionSchedule


# Every coordinate of a particle, a mixture mean and a rectify-demo grid point
# lies in [-BOX, BOX]: distill.run stops a run as diverged once a particle
# leaves it, and config bounds [distill] init_scale and the [demo] grid by it.
BOX = 1e6


def covariance_floor(dim: int) -> float:
    """The least covariance eigenvalue a mixture may have in dimension dim.

    Two points of the box are at most 2 BOX apart per coordinate, so their
    squared distance is at most 4 dim BOX^2.  Divided by an eigenvalue of at
    least 4 dim BOX^2 / sqrt(max float), it is at most sqrt(max float), about
    1.3e154: it cannot overflow, and neither can the square of a Gaussian
    score (distance / eigenvalue, at most sqrt(max float) / (2 sqrt(dim) BOX))
    that gradient-norm alignment takes.  A noisy covariance
    alpha^2 Sigma + sigma^2 I with alpha^2 + sigma^2 = 1 keeps its eigenvalues
    at least min(floor, 1).
    """
    return 4.0 * dim * BOX**2 / np.sqrt(np.finfo(float).max)


def _logsumexp(a, axis=None):
    amax = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - amax), axis=axis, keepdims=True)) + amax
    return np.squeeze(out, axis=axis) if axis is not None else out.reshape(())


@dataclass(frozen=True)
class PoseLabeledMixture:
    """Gaussian mixture whose components carry discrete pose-category labels."""

    weights: np.ndarray        # (n_comp,)
    means: np.ndarray          # (n_comp, dim)
    covs: np.ndarray           # (n_comp, dim, dim)
    category_of: np.ndarray    # (n_comp,) ints in [0, num_categories)
    num_categories: int
    _chols: np.ndarray = field(init=False, repr=False, compare=False)
    _clean: "_Steps" = field(init=False, repr=False, compare=False)          # the components at t = 0
    _log_weights: np.ndarray = field(init=False, repr=False, compare=False)   # (n_comp,)
    _members: np.ndarray = field(init=False, repr=False, compare=False)       # (K, n_comp) bools
    _diagonal: bool = field(init=False, repr=False, compare=False)             # every covariance is diagonal

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        cov = np.asarray(self.covs, dtype=float)
        cat = np.asarray(self.category_of, dtype=int)
        d = mu.shape[1]
        if cov.size != w.size * d * d:
            raise ConfigurationError(
                f"covariances must contain {w.size} {d}x{d} matrices, got shape {cov.shape}"
            )
        cov = cov.reshape(w.size, d, d)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covs", cov)
        object.__setattr__(self, "category_of", cat)
        if not (w.size == mu.shape[0] == cov.shape[0] == cat.size):
            raise ConfigurationError("component arrays have mismatched lengths")
        if not all(np.all(np.isfinite(a)) for a in (w, mu, cov)):
            raise ConfigurationError("component weights, means and covariances must be finite")
        if not np.all(np.abs(mu) <= BOX):
            raise ConfigurationError("component means must lie within [-1e6, 1e6], where distill.run keeps particles")
        # a weight above 1 fails before the sum, which it could overflow
        if np.any(w <= 0) or np.any(w > 1) or abs(np.sum(w) - 1.0) > 1e-12:
            raise ConfigurationError("component weights must be positive and sum to 1")
        covered = set(cat.tolist())
        missing = sorted(set(range(self.num_categories)) - covered)
        if missing or covered - set(range(self.num_categories)):
            raise ConfigurationError(
                f"every pose category needs probability mass (p(c) > 0); "
                f"missing or out-of-range categories: {missing or sorted(covered)}"
            )
        try:
            chols = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ConfigurationError("all component covariances must be positive-definite") from exc
        floor = covariance_floor(d)
        if np.linalg.eigvalsh(cov).min() < floor:
            raise ConfigurationError(f"component covariance eigenvalues must be at least {floor:.3g} "
                                     f"in dimension {d}, or the mixture's squared distances overflow")
        object.__setattr__(self, "_chols", chols)
        object.__setattr__(self, "_clean", _form(self, np.ones(()), np.zeros(())))
        object.__setattr__(self, "_log_weights", np.log(w))
        object.__setattr__(self, "_members", cat == np.arange(self.num_categories)[:, None])
        # off-diagonal zeros of Sigma stay zeros in a^2 Sigma + s^2 I, so every row is diagonal too
        object.__setattr__(self, "_diagonal", not cov[:, ~np.eye(d, dtype=bool)].any())

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def num_components(self) -> int:
        return self.weights.size

    def category_weights(self) -> np.ndarray:
        """Exact category marginal; unchanged by forward diffusion."""
        out = np.zeros(self.num_categories)
        np.add.at(out, self.category_of, self.weights)
        return out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n clean points from the mixture."""
        comps = rng.choice(self.num_components, size=n, p=self.weights)
        eps = rng.standard_normal((n, self.dim))
        return self.means[comps] + np.einsum("nij,nj->ni", self._chols[comps], eps)

    def sample_noisy(self, schedule: DiffusionSchedule, t: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n points from the time-t noisy marginal."""
        x0 = self.sample(n, rng)
        eps = rng.standard_normal((n, self.dim))
        return schedule.alpha[t] * x0 + schedule.sigma[t] * eps


class _Pass(NamedTuple):
    """One pass over the mixture components at some points."""

    logits: np.ndarray     # (..., n_comp): log(pi_k) + log N(xt; mean_k(t), cov_k(t))
    resp: np.ndarray       # (..., n_comp): the responsibilities, softmax(logits)
    scores: np.ndarray     # (..., n_comp, d): -cov_k(t)^-1 (xt - mean_k(t))


class _Steps(NamedTuple):
    """The noisy components at some steps t: N(alpha_t mu_k, alpha_t^2 Sigma_k + sigma_t^2 I)."""

    means: np.ndarray      # (..., n_comp, d): alpha_t * mu_k
    covs: np.ndarray       # (..., n_comp, d, d)
    logdet: np.ndarray     # (..., n_comp): log det covs


def _steps(m: PoseLabeledMixture, schedule, t) -> _Steps:
    """The noisy components at step(s) t; t = 0 with no schedule is the clean mixture, built with it."""
    if schedule is None:
        if np.any(np.asarray(t) != 0):
            raise ValueError("a noisy step needs a schedule")
        return m._clean
    return _form(m, schedule.alpha[t], schedule.sigma[t])


def _form(m: PoseLabeledMixture, a, s) -> _Steps:
    """N(a mu_k, a^2 Sigma_k + s^2 I) for scale(s) a and noise level(s) s."""
    a, s = a[..., None, None], s[..., None, None]
    covs = a[..., None] ** 2 * m.covs + s[..., None] ** 2 * np.eye(m.dim)
    return _Steps(a * m.means, covs, np.linalg.slogdet(covs)[1])


def _components(m: PoseLabeledMixture, steps: _Steps, xt) -> _Pass:
    """One pass over the components, whose noisy rows `steps` are given.

    steps are one step's rows with xt of shape (..., d), or one step's rows
    per point, leading shape (n,), with xt of shape (n, d): `_steps` of a
    schedule, or a run's `RunTables.at`.  The logits need the same solve as
    the Gaussian scores, so the scores cost nothing extra, and the
    responsibilities are taken once here; density, score, posterior and
    the reweighting gradient all derive from this pass.
    """
    xt = np.asarray(xt, dtype=float)
    if xt.shape[-1] != m.dim:
        raise ValueError(f"point dimension {xt.shape[-1]} != mixture dimension {m.dim}")
    diff = xt[..., None, :] - steps.means                                    # (..., n_comp, d)
    # a diagonal solve is a division, bit for bit but for the sign of a zero
    # (LAPACK's elimination may turn a -0.0 of diff into +0.0); a reciprocal multiply is not
    sol = (diff / steps.covs.diagonal(0, -2, -1) if m._diagonal
           else np.linalg.solve(steps.covs, diff[..., None])[..., 0])
    logits = m._log_weights - 0.5 * ((diff * sol).sum(axis=-1) + m.dim * np.log(2.0 * np.pi) + steps.logdet)
    return _Pass(logits, _softmax(logits), -sol)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Normalised exp over the last axis; entries of -inf get zero weight."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# The score, noise prediction, category posterior and reweighting gradient
# as functions of one `_components` pass: the public evaluators below are a
# pass followed by one of these, and a caller that needs several of them at
# the same points evaluates the mixture once.


def _score(p: _Pass) -> np.ndarray:
    return (p.resp[..., None] * p.scores).sum(axis=-2)


def _eps_pretrain(schedule: DiffusionSchedule, t, p: _Pass) -> np.ndarray:
    return -schedule.sigma[t][..., None] * _score(p)


def _category_posterior(m: PoseLabeledMixture, p: _Pass) -> np.ndarray:
    return (p.resp[..., None, :] * m._members).sum(axis=-1)


def _grad_log_reweight(m: PoseLabeledMixture, p: _Pass, log_w) -> np.ndarray:
    shift = _softmax(p.logits + log_w[..., m.category_of]) - p.resp
    return (shift[..., None] * p.scores).sum(axis=-2)


def density(m: PoseLabeledMixture, x) -> np.ndarray:
    """Clean data density p(x); accepts a point (d,) or a batch (..., d)."""
    return noisy_density(m, None, 0, x)


def noisy_density(m: PoseLabeledMixture, schedule, t, xt) -> np.ndarray:
    """Time-t marginal density; reduces to `density` exactly at t=0."""
    return np.exp(_logsumexp(_components(m, _steps(m, schedule, t), xt).logits, axis=-1))


def score(m: PoseLabeledMixture, schedule, t, xt) -> np.ndarray:
    """Gradient of log p_t at xt: responsibility-weighted Gaussian scores.

    Like every evaluator here, it takes one step t with points (..., d), or
    steps of shape (n,) with points of shape (n, d).
    """
    return _score(_components(m, _steps(m, schedule, t), xt))


def eps_pretrain(m: PoseLabeledMixture, schedule: DiffusionSchedule, t, xt) -> np.ndarray:
    """Exact noise prediction: -sigma_t times the score."""
    return _eps_pretrain(schedule, t, _components(m, _steps(m, schedule, t), xt))


def category_posterior(m: PoseLabeledMixture, schedule, t, xt) -> np.ndarray:
    """p(category | xt) at step t: per-category sums of the responsibilities.

    The sums run along the last axis rather than through a matrix product,
    whose BLAS kernel (and so its rounding) changes with the batch shape:
    a row of a batch must equal the call for that row alone, since central
    differences of log r divide that rounding by the step.
    """
    return _category_posterior(m, _components(m, _steps(m, schedule, t), xt))


def grad_log_reweight(m: PoseLabeledMixture, schedule, t, xt, log_w) -> np.ndarray:
    """Gradient of log sum_c w(c) p_t(c | xt) for per-category log weights log_w.

    Reweighting component k by w(category_k) leaves the component scores
    unchanged and only shifts the logits, so the gradient is the
    reweighted-mixture score minus this mixture's score:
    sum_k (softmax(l + log_w[cat_k]) - softmax(l))_k * g_k.  log_w is (K,)
    or one row per point, and may hold -inf for categories that get zero
    weight (at least one must stay finite).
    """
    return _grad_log_reweight(m, _components(m, _steps(m, schedule, t), xt), log_w)


def category_marginal(m: PoseLabeledMixture, schedule: DiffusionSchedule, t: int, n_samples: int, seed: int) -> np.ndarray:
    """Monte Carlo estimate of E[p(category | xt)] over the time-t marginal."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    if t == 0:
        xt = m.sample(n_samples, rng)
    else:
        xt = m.sample_noisy(schedule, t, n_samples, rng)
    return np.mean(category_posterior(m, schedule, t, xt), axis=0)


@dataclass(frozen=True)
class Renderer:
    """Maps particle parameters to data space; identity or a per-pose rotation."""

    kind: str = "identity"
    angles: tuple[float, ...] = ()
    _rotations: np.ndarray = field(init=False, repr=False, compare=False)   # (len(angles), 2, 2)

    def __post_init__(self):
        if self.kind not in ("identity", "rotation"):
            raise ConfigurationError(f"unknown renderer kind {self.kind!r}")
        # each pose's rotation matrix, built once; an identity renderer ignores its angles
        angle = np.asarray(self.angles if self.kind == "rotation" else (), dtype=float)
        if not np.all(np.isfinite(angle)):
            raise ConfigurationError(f"rotation renderer angles must be finite, got {angle.tolist()}")
        cos, sin = np.cos(angle), np.sin(angle)
        rotations = np.stack([cos, -sin, sin, cos], axis=-1).reshape(angle.shape + (2, 2))
        object.__setattr__(self, "_rotations", rotations)


def render(r: Renderer, theta, c) -> np.ndarray:
    """Render parameters (..., d) at poses c, one pose or one per parameter
    vector (broadcast against theta's leading axes); rotations preserve the norm."""
    theta = np.asarray(theta, dtype=float)
    if r.kind == "identity":
        return theta.copy()
    return np.einsum("...ij,...j->...i", render_jacobian(r, theta, c), theta)


def render_poses(r: Renderer, theta) -> np.ndarray:
    """Parameters (n, d) rendered at every pose, (K, n, d): one einsum over
    the poses' rotations, the same products `render` takes per pair.  The
    identity renderer's one pose is the parameters themselves, (1, n, d)."""
    theta = np.asarray(theta, dtype=float)
    if r.kind == "identity":
        return theta[None]
    if theta.shape[-1] != 2:
        raise ValueError("rotation renderer needs 2D parameters")
    return np.einsum("kij,nj->kni", r._rotations, theta)


def at_pose(r: Renderer, rendered: np.ndarray, c) -> np.ndarray:
    """`render(r, theta, c)` gathered from `rendered = render_poses(r, theta)`:
    pose(s) c broadcast against the particle axis."""
    return _at_pose(r, rendered, _poses(r, c))


def _at_pose(r: Renderer, rendered: np.ndarray, c) -> np.ndarray:
    """`at_pose` at poses already checked, such as a run's draws."""
    return rendered[0] if r.kind == "identity" else rendered[c, np.arange(rendered.shape[1])]


def _poses(r: Renderer, c) -> np.ndarray:
    """Poses c as an array, checked against a rotation renderer's angles; the identity takes any pose."""
    c, k = np.asarray(c), len(r.angles)
    if r.kind == "rotation" and not ((c >= 0) & (c < k)).all():
        raise ValueError(f"pose {c[(c < 0) | (c >= k)].flat[0]} outside configured categories [0, {k})")
    return c


def render_jacobian(r: Renderer, theta, c) -> np.ndarray:
    """d(render)/d(theta), shape (..., d, d): the identity or each pose's rotation matrix."""
    theta, c = np.asarray(theta, dtype=float), _poses(r, c)
    d = theta.shape[-1]
    if r.kind == "identity":
        return np.broadcast_to(np.eye(d), theta.shape + (d,))
    if d != 2:
        raise ValueError("rotation renderer needs 2D parameters")
    return np.broadcast_to(r._rotations[c], np.broadcast_shapes(c.shape, theta.shape[:-1]) + (2, 2))


def _jacobian_t(r: Renderer, c, v) -> np.ndarray:
    """J^T v for the render Jacobian at checked poses c (n,), rows v (n, d).
    The identity's is v + 0.0, its einsum bit for bit (whose accumulator
    turns -0.0 into +0.0) wherever that einsum is finite."""
    if r.kind == "identity":
        return v + 0.0
    return np.einsum("nji,nj->ni", r._rotations[c], v)
