"""Score-distillation engine over the analytic mixture prior.

Plain score distillation (SDS), variational score distillation with an
exact particle-mixture variational score (VSD), the marginal-rectified
variant (USD) and a single-category control mode (CTRL) are one gradient
rule, `gradient`, with different inputs.  Supporting pieces: a
back-and-forth timestep scheduler and gradient-norm alignment of the
correction term.
"""

from __future__ import annotations

import csv
import pathlib
from dataclasses import dataclass

import numpy as np

from . import rectify, worldmodel
from .errors import ConfigurationError, DivergenceError
from .estimator import IntervalEma, ema_lookup, ema_update
from .metrics import categorical_entropy
from .rectify import Rectifier
from .schedule import DiffusionSchedule, loss_weight
from .worldmodel import BOX, PoseLabeledMixture, Renderer, render, render_jacobian, render_poses  # noqa: F401 (traced)

METHODS = ("sds", "vsd", "usd", "ctrl")


@dataclass(frozen=True)
class ParticleSet:
    """The optimized parameter vectors plus their renderer."""

    particles: np.ndarray       # (n, d)
    renderer: Renderer
    seed: int

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.particles, dtype=float))
        object.__setattr__(self, "particles", p)
        if p.shape[0] < 1 or not np.all(np.isfinite(p)):
            raise ConfigurationError("need at least one finite particle")

    @classmethod
    def initialise(cls, n: int, dim: int, renderer: Renderer, seed: int, scale: float = 1.0) -> "ParticleSet":
        rng = np.random.default_rng(seed)
        return cls(particles=scale * rng.standard_normal((n, dim)), renderer=renderer, seed=seed)

    @property
    def num_particles(self) -> int:
        return self.particles.shape[0]


@dataclass(frozen=True)
class DistillConfig:
    """Hyperparameters of one distillation run."""

    method: str
    eta1: float = 0.03
    iters: int = 4000
    bnf_n_i: int = 2
    grad_norm_align: bool = True
    control_category: int | None = None
    rectifier: Rectifier | None = None
    pose_probs: np.ndarray | None = None
    omega_kind: str = "sigma-squared"
    n_t: int = 10
    n_ema: int = 100
    snapshot_every: int = 200

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}; choose from {METHODS}")
        if not (np.isfinite(self.eta1) and self.eta1 > 0):
            raise ConfigurationError(f"eta1 must be a finite positive learning rate, got {self.eta1}")
        low = [f"{k} = {getattr(self, k)}" for k in ("iters", "snapshot_every", "bnf_n_i", "n_t", "n_ema")
               if getattr(self, k) < 1]
        if low:
            raise ConfigurationError(f"{', '.join(low)}: must be at least 1")
        if (self.control_category is not None) != (self.method == "ctrl"):
            raise ConfigurationError("control_category must be set exactly when method='ctrl'")
        if self.method == "usd" and self.rectifier is None:
            raise ConfigurationError("method 'usd' needs a rectifier configuration")


def variational_eps(renderer: Renderer, schedule: DiffusionSchedule, t, c, xt, rendered: np.ndarray) -> np.ndarray:
    """Noise prediction of the particle-induced distribution at step t.

    The particles at pose c induce the mixture (1/n) sum_i
    N(alpha_t * g(theta_i, c), sigma_t^2 I); this returns
    -sigma_t * grad log of that mixture, the exact population minimizer of
    the usual noise-regression objective.  t and c are one step and pose
    with xt of shape (d,), or one per draw with xt of shape (m, d); every
    draw is evaluated against all particles at once, gathered from
    `rendered`, the particles at every pose (`render_poses`), at poses c
    already checked against the renderer, as a run's draws are.
    """
    xt = np.asarray(xt, dtype=float)
    a, s = schedule.alpha[t][..., None, None], schedule.sigma[t][..., None]
    diffs = xt[..., None, :] - a * worldmodel._at_pose(renderer, rendered, np.asarray(c)[..., None])   # (..., n, d)
    w = worldmodel._softmax(-0.5 * (diffs**2).sum(axis=-1) / s**2)
    return (w[..., None] * diffs).sum(axis=-2) / s


def bnf_interval(iteration: int, total_iters: int, n_i: int, num_steps: int) -> tuple[int, int]:
    """Back-and-forth timestep range for the block containing `iteration`.

    The run is split into 2*n_i equal blocks.  The first n_i blocks keep
    the upper bound at 0.98*T while the lower bound expands linearly from
    T - T/n_i down to 0.02*T; the last n_i blocks keep the lower bound at
    0.02*T while the upper bound shrinks linearly from 0.98*T to T/n_i.
    """
    if n_i < 1 or not 0 <= iteration < total_iters:
        raise ValueError("need n_i >= 1 and 0 <= iteration < total_iters")
    T = num_steps
    block = min(iteration * 2 * n_i // total_iters, 2 * n_i - 1)
    frac = block / (n_i - 1) if n_i > 1 else 1.0
    if block < n_i:
        t_high = 0.98 * T
        t_low = (1.0 - frac) * (T - T / n_i) + frac * 0.02 * T
    else:
        frac = (block - n_i) / (n_i - 1) if n_i > 1 else 0.0
        t_low = 0.02 * T
        t_high = (1.0 - frac) * 0.98 * T + frac * (T / n_i)
    lo = max(1, int(round(t_low)))
    hi = min(T, int(round(t_high)))
    if lo >= hi:
        raise ValueError(f"degenerate timestep range ({lo}, {hi}) at block {block}")
    return lo, hi


def grad_norm_align(primary_grad, secondary_grad) -> np.ndarray:
    """Rescale each secondary gradient (last axis) to its primary's L2 norm.

    Keeps the secondary's direction; a zero secondary stays zero.
    """
    primary = np.asarray(primary_grad, dtype=float)
    secondary = np.asarray(secondary_grad, dtype=float)
    if not np.isfinite(primary).all():
        raise ValueError("primary gradient must be finite")
    # np.linalg.norm's own reduce for real vectors, without its dispatch
    norm_s = np.sqrt(np.add.reduce(secondary * secondary, axis=-1, keepdims=True))
    norm_p = np.sqrt(np.add.reduce(primary * primary, axis=-1, keepdims=True))
    return secondary * np.divide(norm_p, norm_s, out=np.zeros(norm_s.shape), where=norm_s > 0.0)


# ---------------------------------------------------------------------------
# Per-iteration draws and the gradient rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Draws:
    """One (t, pose, noise) triple per particle, shared across methods."""

    t: np.ndarray          # (n,) ints
    pose: np.ndarray       # (n,) ints
    eps: np.ndarray        # (n, d)
    xt: np.ndarray         # (n, d)
    rendered: np.ndarray   # (K, n, d): the particles at every pose


@dataclass(frozen=True)
class RunTables:
    """One run's prior, schedule, config and renderer, and their per-step tables, built once."""

    mixture: PoseLabeledMixture
    schedule: DiffusionSchedule
    cfg: DistillConfig
    renderer: Renderer
    steps: worldmodel._Steps                 # the prior's noisy components at t = 0..T
    omega: np.ndarray                        # (T+1,) the loss weight of each step
    pose_cdf: np.ndarray                     # (K,) cumulative pose probabilities, normalised
    control_log_w: np.ndarray | None         # CTRL's log weights
    eye: np.ndarray                          # (d, d) identity: `rectify.correction`'s finite-difference directions

    @classmethod
    def build(cls, m: PoseLabeledMixture, schedule: DiffusionSchedule, cfg: DistillConfig,
              renderer: Renderer) -> "RunTables":
        k, r = m.num_categories, renderer
        if r.kind == "rotation" and len(r.angles) != k:
            raise ConfigurationError(f"rotation renderer has {len(r.angles)} angles, need {k} renderer_angles")
        if r.kind == "rotation" and m.dim != 2:
            raise ConfigurationError(f"renderer = rotation needs a 2D mixture, got dimension {m.dim}")
        if r.kind == "identity" and r.angles:
            raise ConfigurationError(f"renderer_angles {[float(a) for a in r.angles]} need renderer = rotation")
        probs = np.full(k, 1.0 / k) if cfg.pose_probs is None else np.asarray(cfg.pose_probs, dtype=float)
        # the checks rng.choice(k, p=probs) makes, with its tolerance
        tol = np.sqrt(np.finfo(float).eps)
        if probs.shape != (k,) or not np.all(probs >= 0) or abs(np.sum(probs) - 1.0) > tol:
            raise ConfigurationError(f"pose_probs must be {k} finite, non-negative probabilities summing to 1 within {tol:.3g}")
        if cfg.control_category is not None and not 0 <= cfg.control_category < k:
            raise ConfigurationError(f"control_category {cfg.control_category} outside [0, {k})")
        if cfg.method == "usd" and cfg.rectifier.posterior_source == "classifier-on-tweedie":
            # the Tweedie estimate divides by alpha_t, which never rises with t:
            # the largest step the run draws, in its first block, has the least
            hi = bnf_interval(0, cfg.iters, cfg.bnf_n_i, schedule.num_steps)[1]
            if schedule.alpha[hi] < 1e-300:
                raise ConfigurationError(
                    f"[schedule] num_steps/beta_min/beta_max give alpha_t = {schedule.alpha[hi]:.3g} < 1e-300 at "
                    f"t = {hi}, the largest step the run draws, where [rectifier] posterior_source = "
                    "classifier-on-tweedie cannot denoise")
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        return cls(
            mixture=m, schedule=schedule, cfg=cfg, renderer=renderer,
            steps=worldmodel._steps(m, schedule, np.arange(schedule.num_steps + 1)),
            omega=loss_weight(schedule, cfg.omega_kind),
            pose_cdf=cdf,
            control_log_w=None if cfg.control_category is None else _control_log_weights(m, cfg.control_category),
            eye=np.eye(m.dim),
        )

    def at(self, t) -> worldmodel._Steps:
        """The noisy components at step(s) t: the rows `worldmodel._steps` forms."""
        return worldmodel._Steps(self.steps.means[t], self.steps.covs[t], self.steps.logdet[t])


def _draw(tables: RunTables, particles: np.ndarray, iteration: int, rng: np.random.Generator) -> _Draws:
    """The iteration's (t, pose, noise) draws and noisy points."""
    (n, d), schedule, cfg, renderer = particles.shape, tables.schedule, tables.cfg, tables.renderer
    lo, hi = bnf_interval(iteration, cfg.iters, cfg.bnf_n_i, schedule.num_steps)
    t = rng.integers(lo, hi + 1, size=n)
    # how rng.choice(K, size=n, p=probs) draws: the same poses and generator state
    pose = tables.pose_cdf.searchsorted(rng.random(n), side="right")
    eps = rng.standard_normal((n, d))
    rendered = render_poses(renderer, particles)
    xt = schedule.alpha[t][:, None] * worldmodel._at_pose(renderer, rendered, pose) + schedule.sigma[t][:, None] * eps
    return _Draws(t=t, pose=pose, eps=eps, xt=xt, rendered=rendered)


def _control_log_weights(m: PoseLabeledMixture, category: int) -> np.ndarray:
    """log w for CTRL: reweighting by 1 on the category and 0 elsewhere."""
    return np.where(np.arange(m.num_categories) == category, 0.0, -np.inf)


def _control_grad_log_posterior(m: PoseLabeledMixture, schedule: DiffusionSchedule,
                                t, xt, category: int) -> np.ndarray:
    """grad_x log p(category | x_t)."""
    return worldmodel.grad_log_reweight(m, schedule, t, xt, _control_log_weights(m, category))


def gradient(tables: RunTables, draws: _Draws, marginal=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Distillation gradient of every particle, the one rule behind every method:

        omega(t) J^T (eps_pre - eps_ref) - align(omega(t) sigma_t J^T grad log r)

    evaluated for all particles at once.  J is the render Jacobian at the
    drawn pose, eps_pre the prior's noise prediction, and align rescales
    each particle's correction to its first term's norm when the run's
    config sets grad_norm_align.  Only two inputs depend on the method:
    eps_ref is the drawn noise for SDS and the particle-mixture prediction
    otherwise; r is 1 for SDS and VSD, the rectifier for USD (with the
    category marginal `marginal`, (K,) or one row per draw), and the
    commanded category's posterior for CTRL.  Subtracting the correction in
    a descent update ascends log r.

    One pass over the mixture, its noisy components gathered from the run's
    `tables` at the drawn steps, gives eps_pre and the CTRL correction at
    the drawn points; for USD, `rectify.correction` makes that pass and
    returns it with the correction.  For USD the second return value
    holds the rectifier's posterior row at every draw, for the EMA to
    observe; other methods return None there.  The tables are only read,
    so the result is a function of them, the draws and the marginal.
    """
    m, schedule, cfg, renderer = tables.mixture, tables.schedule, tables.cfg, tables.renderer
    t, pose, xt = draws.t, draws.pose, draws.xt
    omega = tables.omega[t][:, None]
    eps_ref = draws.eps if cfg.method == "sds" else variational_eps(renderer, schedule, t, pose, xt, draws.rendered)
    rows = None
    if cfg.method == "usd":
        g, rows, first = rectify.correction(cfg.rectifier, m, schedule, t, xt, marginal, tables.at(t), tables.eye)
    else:
        first = worldmodel._components(m, tables.at(t), xt)
    out = omega * worldmodel._jacobian_t(renderer, pose, worldmodel._eps_pretrain(schedule, t, first) - eps_ref)
    if cfg.method == "ctrl":
        g = worldmodel._grad_log_reweight(m, first, tables.control_log_w)
    elif cfg.method != "usd":
        return out, None
    correction = omega * schedule.sigma[t][:, None] * worldmodel._jacobian_t(renderer, pose, g)
    if cfg.grad_norm_align:
        correction = grad_norm_align(out, correction)
    return out - correction, rows


# ---------------------------------------------------------------------------
# The full optimization loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """Everything a distillation run produced, for inspection and export."""

    final_particles: np.ndarray                   # (n, d)
    snapshots: tuple                              # ((iter, (n, d) array), ...)
    ema_trace: tuple                              # ((iter, (n_t, K) array), ...)
    metrics: tuple                                # ((iter, split vector, entropy), ...)


def particle_split(rows: np.ndarray) -> np.ndarray:
    """Fraction of particles whose clean-posterior row (of an (n, K) array) peaks at each category."""
    return np.bincount(np.argmax(rows, axis=1), minlength=rows.shape[1]) / rows.shape[0]


def _clean_rows(tables: RunTables, particles: np.ndarray) -> np.ndarray:
    """The (n, K) clean posterior of the particles rendered at pose 0."""
    return worldmodel.category_posterior(tables.mixture, None, 0, render(tables.renderer, particles, 0))


def run(ps: ParticleSet, m: PoseLabeledMixture, schedule: DiffusionSchedule,
        cfg: DistillConfig) -> RunReport:
    """Execute the configured distillation loop; deterministic given the seed.

    One (t, pose, noise) triple is drawn per particle per iteration.  The
    EMA marginal tracker observes one posterior row per iteration, the one
    `gradient` returns at a rotating particle's draw, so no extra randomness
    is consumed (methods stay trajectory-comparable under a shared seed).
    The draws' poses lie in [0, K) by construction, so `RunTables.build`
    checks the renderer against the mixture once, and not per iteration.
    """
    tables = RunTables.build(m, schedule, cfg, ps.renderer)
    rng = np.random.default_rng(ps.seed)
    particles = ps.particles.copy()
    state = IntervalEma.create(schedule.num_steps, cfg.n_t, m.num_categories, cfg.n_ema)
    # USD's marginal: the EMA's row at each draw's step, or a constant
    source = cfg.rectifier.marginal_source if cfg.method == "usd" else None
    marginal = m.category_weights() if source == "exact-mc" else None
    if source == "fixed-presampled":
        # one-shot estimate from the initial particles, never updated; at
        # t = 0 every posterior source is the clean posterior
        marginal = np.mean(_clean_rows(tables, particles), axis=0)
    snapshots, ema_trace, metrics = [], [], []
    for it in range(cfg.iters):
        draws = _draw(tables, particles, it, rng)
        grads, rows = gradient(tables, draws, ema_lookup(state, draws.t) if source == "ema" else marginal)
        particles = particles - cfg.eta1 * grads
        if not np.abs(particles).max() <= BOX:                                # NaN fails too
            raise DivergenceError(
                f"particle parameters diverged at iteration {it} (method {cfg.method!r})"
            )
        if rows is not None:
            j = it % ps.num_particles
            ema_update(state, int(draws.t[j]), rows[j])
        if it % cfg.snapshot_every == 0 or it == cfg.iters - 1:
            snapshots.append((it, particles.copy()))
            ema_trace.append((it, state.snapshot()))
            clean = _clean_rows(tables, particles)
            metrics.append((it, particle_split(clean), categorical_entropy(clean).entropy))
    return RunReport(
        final_particles=particles,
        snapshots=tuple(snapshots),
        ema_trace=tuple(ema_trace),
        metrics=tuple(metrics),
    )


def cell(value):
    """The text of a CSV cell or a printed value: a float (numpy's float64
    too) as repr(float), the shortest text that reads back as the same
    float; any other value as it is, for csv to write."""
    return repr(float(value)) if isinstance(value, float) else value


def write_rows(path, header, rows) -> None:
    """Write the header and then the rows as CSV, every line ending in a bare
    line feed and every cell written as `cell` gives it."""
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(map(cell, row) for row in rows)


def write_report(report: RunReport, out_dir) -> None:
    """Write particles.csv, ema.csv and metrics.csv under out_dir."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_rows(out / "particles.csv", ["iter", "particle"] + [f"x{j}" for j in range(report.final_particles.shape[1])],
               ([it, i, *th] for it, parts in report.snapshots for i, th in enumerate(parts.tolist())))
    write_rows(out / "ema.csv", ["iter", "interval", "category", "value"],
               ([it, i, c, v] for it, values in report.ema_trace for i, row in enumerate(values.tolist())
                for c, v in enumerate(row)))
    write_rows(out / "metrics.csv", ["iter", "entropy"] + [f"split_{c}" for c in range(len(report.metrics[0][1]))],
               ([it, entropy, *split] for it, split, entropy in report.metrics))
