"""The batched evaluators against per-row scalar calls.

Every mixture evaluator, the renderer, the variational noise prediction and
the rectifier correction accept one step per row (t of shape (n,), points of
shape (n, d)); each row must agree with the call for that row alone.  The
gradient rule is checked against a per-particle loop written here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eps_pretrain, random_mixture, source_posterior
from recdistill import distill as D
from recdistill import rectify, worldmodel
from recdistill.estimator import IntervalEma, ema_lookup
from recdistill.oracle import finite_difference_grad
from recdistill.rectify import POSTERIOR_SOURCES, Rectifier, TargetMarginal
from recdistill.schedule import loss_weight
from recdistill.worldmodel import PoseLabeledMixture, Renderer


def _close(got, ref, tol=1e-12):
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and np.max(np.abs(got - ref)) <= tol * max(1.0, np.max(np.abs(ref)))


def _rows(fn, *args):
    return np.array([fn(*row) for row in zip(*args)])


def _instance(seed, dim, k, n, with_zero):
    rng = np.random.default_rng(seed)
    m = random_mixture(rng, dim, k)
    t = rng.integers(1, 1001, size=n)
    if with_zero:
        t[rng.integers(n)] = 0
    x = rng.uniform(-4.0, 4.0, size=(n, dim))
    return rng, m, t, x


instances = dict(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), k=st.integers(2, 4),
                 n=st.integers(1, 6), with_zero=st.booleans())


class TestBatchedMixture:
    @settings(max_examples=60, deadline=None)
    @given(**instances)
    def test_rows_match_scalar_calls(self, schedule, seed, dim, k, n, with_zero):
        rng, m, t, x = _instance(seed, dim, k, n, with_zero)
        for fn in (worldmodel.score, eps_pretrain, worldmodel.category_posterior):
            assert _close(fn(m, schedule, t, x), _rows(lambda ti, xi: fn(m, schedule, int(ti), xi), t, x))
        log_w = np.log(rng.dirichlet(np.ones(k), size=n))
        assert _close(worldmodel.grad_log_reweight(m, schedule, t, x, log_w),
                      _rows(lambda ti, xi, li: worldmodel.grad_log_reweight(m, schedule, int(ti), xi, li),
                            t, x, log_w))

    @settings(max_examples=30, deadline=None)
    @given(**instances)
    def test_score_matches_finite_differences(self, schedule, seed, dim, k, n, with_zero):
        _, m, t, x = _instance(seed, dim, k, n, with_zero)
        got = worldmodel.score(m, schedule, t, x)
        for i in range(n):
            fd = finite_difference_grad(
                lambda v: np.log(worldmodel.noisy_density(m, schedule, int(t[i]), v)), x[i], 1e-5)
            assert np.max(np.abs(fd - got[i])) <= 1e-5 * max(1.0, np.max(np.abs(got[i])))


class TestBatchedRendering:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), k=st.integers(2, 4),
           n=st.integers(1, 6), draws=st.integers(1, 5))
    def test_render_and_variational_eps(self, schedule, seed, dim, k, n, draws):
        rng = np.random.default_rng(seed)
        renderer = Renderer("rotation", tuple(rng.uniform(0, 2 * np.pi, k))) if dim == 2 else Renderer()
        particles = rng.standard_normal((n, dim))
        pose = rng.integers(k, size=n)
        assert _close(worldmodel.render(renderer, particles, pose),
                      _rows(lambda th, c: worldmodel.render(renderer, th, int(c)), particles, pose))
        assert _close(worldmodel.render_jacobian(renderer, particles, pose),
                      _rows(lambda th, c: worldmodel.render_jacobian(renderer, th, int(c)), particles, pose))
        t = rng.integers(1, 1001, size=draws)
        c = rng.integers(k, size=draws)
        xt = rng.uniform(-3.0, 3.0, size=(draws, dim))
        rendered = worldmodel.render_poses(renderer, particles)
        assert _close(D.variational_eps(renderer, schedule, t, c, xt, rendered),
                      _rows(lambda ti, ci, xi: D.variational_eps(renderer, schedule, int(ti), int(ci), xi, rendered),
                            t, c, xt))


class TestBatchedCorrection:
    @settings(max_examples=60, deadline=None)
    @given(source=st.sampled_from(POSTERIOR_SOURCES), **instances)
    def test_grad_log_r_rows(self, schedule, source, seed, dim, k, n, with_zero):
        rng, m, t, x = _instance(seed, dim, k, n, with_zero and source != "classifier-on-tweedie")
        rect = Rectifier(target=TargetMarginal(rng.dirichlet(np.ones(k))), posterior_source=source)
        marginal = rng.dirichlet(np.ones(k), size=n)
        assert _close(rectify.grad_log_r(rect, m, schedule, t, x, marginal),
                      _rows(lambda ti, xi, mi: rectify.grad_log_r(rect, m, schedule, int(ti), xi, mi),
                            t, x, marginal))
        assert _close(source_posterior(rect, m, schedule, t, x),
                      _rows(lambda ti, xi: source_posterior(rect, m, schedule, int(ti), xi), t, x))


def _reference_gradient(particles, renderer, m, schedule, cfg, draws, state, fixed):
    """The gradient rule one particle at a time, from scalar calls."""
    omega = loss_weight(schedule, cfg.omega_kind)
    out = np.empty_like(particles)
    for i in range(len(particles)):
        t, c, x = int(draws.t[i]), int(draws.pose[i]), draws.xt[i]
        jac = worldmodel.render_jacobian(renderer, particles[i], c)
        eps_ref = draws.eps[i] if cfg.method == "sds" else D.variational_eps(
            renderer, schedule, t, c, x, worldmodel.render_poses(renderer, particles))
        out[i] = omega[t] * (jac.T @ (eps_pretrain(m, schedule, t, x) - eps_ref))
        if cfg.method in ("sds", "vsd"):
            continue
        if cfg.method == "ctrl":
            g = D._control_grad_log_posterior(m, schedule, t, x, cfg.control_category)
        else:
            rect = cfg.rectifier
            marginal = {"ema": ema_lookup(state, t), "exact-mc": m.category_weights(),
                        "fixed-presampled": fixed}[rect.marginal_source]
            g = rectify.grad_log_r(rect, m, schedule, t, x, marginal)
        correction = omega[t] * schedule.sigma[t] * (jac.T @ g)
        if cfg.grad_norm_align:
            correction = D.grad_norm_align(out[i], correction)
        out[i] -= correction
    return out


def _three_pass_gradient(particles, renderer, m, schedule, cfg, draws, state, fixed):
    """The batched gradient rule with a mixture pass for the prior's noise
    prediction and another for the correction, through the public calls."""
    t, pose, xt = draws.t, draws.pose, draws.xt
    omega = loss_weight(schedule, cfg.omega_kind)[t][:, None]
    eps_ref = draws.eps if cfg.method == "sds" else D.variational_eps(
        renderer, schedule, t, pose, xt, worldmodel.render_poses(renderer, particles))
    jac = worldmodel.render_jacobian(renderer, particles, pose)
    out = omega * np.einsum("nji,nj->ni", jac, eps_pretrain(m, schedule, t, xt) - eps_ref)
    if cfg.method == "ctrl":
        g = D._control_grad_log_posterior(m, schedule, t, xt, cfg.control_category)
    elif cfg.method == "usd":
        rect = cfg.rectifier
        marginal = {"ema": ema_lookup(state, t), "exact-mc": m.category_weights(),
                    "fixed-presampled": fixed}[rect.marginal_source]
        g = rectify.grad_log_r(rect, m, schedule, t, xt, marginal)
    else:
        return out
    correction = omega * schedule.sigma[t][:, None] * np.einsum("nji,nj->ni", jac, g)
    if cfg.grad_norm_align:
        correction = D.grad_norm_align(out, correction)
    return out - correction


class TestBatchedGradient:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), k=st.integers(2, 4),
           n=st.integers(1, 6), method=st.sampled_from(D.METHODS),
           source=st.sampled_from(POSTERIOR_SOURCES),
           marginal_source=st.sampled_from(rectify.MARGINAL_SOURCES), align=st.booleans())
    def test_matches_per_particle_loop(self, schedule, seed, dim, k, n, method, source, marginal_source, align):
        rng = np.random.default_rng(seed)
        m = random_mixture(rng, dim, k)
        renderer = Renderer("rotation", tuple(rng.uniform(0, 2 * np.pi, k))) if dim == 2 else Renderer()
        kwargs = dict(method=method, iters=10, grad_norm_align=align)
        if method == "ctrl":
            kwargs["control_category"] = int(rng.integers(k))
        if method == "usd":
            kwargs["rectifier"] = Rectifier(target=TargetMarginal.uniform(k), posterior_source=source,
                                            marginal_source=marginal_source)
        cfg = D.DistillConfig(**kwargs)
        particles = 2.0 * rng.standard_normal((n, dim))
        state = IntervalEma.create(1000, 10, k)
        state.values[:] = rng.dirichlet(np.ones(k), size=10)
        fixed = rng.dirichlet(np.ones(k))
        tables = D.RunTables.build(m, schedule, cfg, renderer)
        draws = D._draw(tables, particles, int(rng.integers(10)), rng)
        marginal = None
        if method == "usd":
            marginal = {"ema": ema_lookup(state, draws.t), "exact-mc": m.category_weights(),
                        "fixed-presampled": fixed}[marginal_source]
        got, rows = D.gradient(tables, draws, marginal)
        assert _close(got, _reference_gradient(particles, renderer, m, schedule, cfg, draws, state, fixed))
        # the shared pass changes no bit of the result
        assert np.array_equal(got, _three_pass_gradient(particles, renderer, m, schedule, cfg, draws, state, fixed))
        if method == "usd":
            for j in range(n):
                assert np.array_equal(rows[j], source_posterior(cfg.rectifier, m, schedule, draws.t[j], draws.xt[j]))
        else:
            assert rows is None

    @pytest.mark.parametrize("dim, diagonal", [(1, True), (2, True), (2, False)])
    @pytest.mark.parametrize("method, source, passes", [
        ("sds", None, 1), ("vsd", None, 1), ("ctrl", None, 1), ("usd", "exact-mixture", 1),
        ("usd", "classifier-on-tweedie", 2), ("usd", "classifier-direct", 2),
    ])
    def test_mixture_passes_per_iteration(self, schedule, monkeypatch, method, source, passes, dim, diagonal):
        # one noisy pass gives eps_pre, the CTRL or exact-mixture correction
        # and the EMA's posterior row; a classifier source adds one clean
        # pass over its finite-difference stack of 2d + 1 blocks (for
        # Tweedie the noisy pass runs over that stack too).  A run makes one
        # slogdet, for its table: the clean components come with the mixture.
        # A pass makes one solve, or none when every covariance is diagonal
        # (as every 1-D one is), where it divides
        rng = np.random.default_rng(5)
        m = random_mixture(rng, dim, 3, diagonal=diagonal)
        kwargs = dict(method=method, iters=6, snapshot_every=100)
        if method == "ctrl":
            kwargs["control_category"] = 1
        if method == "usd":
            kwargs["rectifier"] = Rectifier(target=TargetMarginal.uniform(3), posterior_source=source)
        ps = D.ParticleSet.initialise(8, dim, Renderer(), seed=0)
        events = []
        components, draw, slogdet, solve = worldmodel._components, D._draw, np.linalg.slogdet, np.linalg.solve
        monkeypatch.setattr(worldmodel, "_components", lambda *a: (events.append(np.shape(a[-1])), components(*a))[1])
        monkeypatch.setattr(D, "_draw", lambda *a: (events.append("draw"), draw(*a))[1])
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: (events.append("slogdet"), slogdet(a))[1])
        monkeypatch.setattr(np.linalg, "solve", lambda *a: (events.append("solve"), solve(*a))[1])
        D.run(ps, m, schedule, D.DistillConfig(**kwargs))
        assert events.count("slogdet") == 1
        iterations = []
        for event in events:
            if event == "draw":
                iterations.append([])
            elif iterations and event != "slogdet":
                iterations[-1].append(event)
        stack = (2 * dim + 1, 8, dim)
        noisy = stack if source == "classifier-on-tweedie" else (8, dim)
        solves = [] if diagonal else ["solve"]
        # iterations 0 and 5 take a snapshot, whose metrics row costs a pass
        assert iterations[1:-1] == [[noisy, *solves] + [stack, *solves] * (passes - 1)] * 4


class TestSaturatedFiniteDifferences:
    """Where the clean posterior is saturated, log r is flat up to rounding."""

    @staticmethod
    def _setup(schedule):
        # two components in category 0 make the posterior's sum round to
        # 1 or to 1 - 1 ulp depending on the point
        m = PoseLabeledMixture(
            weights=np.array([0.4, 0.4, 0.2]), means=np.array([[2.0, 0.6], [2.0, -0.6], [-2.0, 0.0]]),
            covs=np.stack([np.eye(2) * 0.05] * 3), category_of=np.array([0, 0, 1]), num_categories=2,
        )
        rect = Rectifier(target=TargetMarginal.uniform(2), posterior_source="classifier-direct",
                         marginal_source="fixed-presampled")
        return m, rect, np.array([1.5, -0.5]), np.array([0.8, 0.2])

    def test_rounding_noise_is_zero(self, schedule):
        m, rect, x, marginal = self._setup(schedule)
        w = rectify.weight_function(rect.target, marginal, rect.epsilon_floor)
        h = rectify.FD_STEP * (1.0 + np.linalg.norm(x))
        step = np.array([0.0, h])
        log_r = [np.log(np.sum(w * worldmodel.category_posterior(m, None, 0, v))) for v in (x + step, x - step)]
        assert log_r[0] != log_r[1] and abs(log_r[0] - log_r[1]) < 1e-15   # the noise is there
        assert np.array_equal(rectify.grad_log_r(rect, m, schedule, 300, x, marginal), np.zeros(2))

    def test_aligned_usd_equals_vsd(self, schedule):
        m, rect, x, marginal = self._setup(schedule)
        t = 300
        particles = np.array([[1.5, -0.5], [-1.8, 0.2]])
        eps = (x - schedule.alpha[t] * particles[0]) / schedule.sigma[t]
        draws = D._Draws(t=np.array([t, t]), pose=np.array([0, 0]), eps=np.array([eps, [0.3, -0.1]]),
                         xt=np.array([x, [0.05, 0.0]]), rendered=worldmodel.render_poses(Renderer(), particles))
        usd = D.DistillConfig(method="usd", iters=10, rectifier=rect)
        vsd = D.DistillConfig(method="vsd", iters=10)
        u, _ = D.gradient(D.RunTables.build(m, schedule, usd, Renderer()), draws, marginal)
        v, _ = D.gradient(D.RunTables.build(m, schedule, vsd, Renderer()), draws)
        assert np.array_equal(u[0], v[0])
        assert not np.array_equal(u[1], v[1])     # the unsaturated particle is corrected
