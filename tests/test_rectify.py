import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdistill import distill, rectify, worldmodel
from recdistill.errors import NumericError
from recdistill.oracle import finite_difference_grad, grid_integrate
from recdistill.rectify import Rectifier, TargetMarginal, grad_log_r, weight_function
from recdistill.worldmodel import PoseLabeledMixture

from conftest import random_mixture, source_posterior


class TestTargetMarginal:
    def test_uniform(self):
        t = TargetMarginal.uniform(4)
        assert np.array_equal(t.probs, np.full(4, 0.25))

    def test_rejects_non_simplex(self):
        with pytest.raises(ValueError):
            TargetMarginal(np.array([0.7, 0.4]))
        with pytest.raises(ValueError):
            TargetMarginal(np.array([1.2, -0.2]))


class TestWeightFunction:
    def test_balanced(self):
        w = weight_function(TargetMarginal.uniform(2), np.array([0.5, 0.5]), 1e-4)
        assert np.array_equal(w, [1.0, 1.0])

    def test_biased(self):
        w = weight_function(TargetMarginal.uniform(2), np.array([0.8, 0.2]), 1e-4)
        assert w == pytest.approx([0.625, 2.5], rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5))
    def test_reweighted_mass_is_one(self, raw):
        p = np.array(raw) / np.sum(raw)
        w = weight_function(TargetMarginal.uniform(p.size), p, 1e-4)
        assert abs(np.sum(w * p) - 1.0) < 1e-10

    def test_flooring_keeps_weights_finite(self):
        w = weight_function(TargetMarginal.uniform(2), np.array([1.0, 0.0]), 1e-4)
        assert np.all(np.isfinite(w))


class TestRectifiedDensity:
    def test_balanced_is_identity(self, balanced_1d):
        xs = np.linspace(-6, 6, 41)[:, None]
        got = rectify.rectified_density(balanced_1d, Rectifier(TargetMarginal.uniform(2)), xs)
        assert np.allclose(got, worldmodel.density(balanced_1d, xs), rtol=1e-14)

    def test_matches_closed_form_reweighted_mixture(self, biased_1d):
        # reweighting 0.8 N(-3,1) + 0.2 N(3,1) to a uniform category target
        # is exactly the balanced mixture 0.5 N(-3,1) + 0.5 N(3,1)
        balanced = PoseLabeledMixture(
            weights=np.array([0.5, 0.5]), means=biased_1d.means, covs=biased_1d.covs,
            category_of=biased_1d.category_of, num_categories=2,
        )
        xs = np.linspace(-8, 8, 101)[:, None]
        got = rectify.rectified_density(biased_1d, Rectifier(TargetMarginal.uniform(2)), xs)
        want = worldmodel.density(balanced, xs)
        assert np.max(np.abs(got / want - 1.0)) < 1e-10

    def test_integrates_to_one(self, biased_1d):
        val = grid_integrate(
            lambda pts: rectify.rectified_density(biased_1d, Rectifier(TargetMarginal.uniform(2)), pts),
            [(-12, 12)], 800,
        )
        assert val == pytest.approx(1.0, abs=1e-3)

    def test_marginal_constraint(self, mixed_2d):
        # the category marginal of the reweighted joint
        # w(c) * p(c|x) * p(x) integrates to the target per category
        target = TargetMarginal.uniform(2)
        w = weight_function(target, mixed_2d.category_weights(), 1e-4)
        for c in range(2):
            def mass(pts, c=c):
                post = worldmodel.category_posterior(mixed_2d, None, 0, pts)
                return worldmodel.density(mixed_2d, pts) * w[c] * post[..., c]

            val = grid_integrate(mass, [(-10, 10), (-10, 10)], 400)
            assert val == pytest.approx(0.5, abs=1e-3)


class TestRectifiedNoisyDensity:
    def test_t0_equals_clean(self, biased_1d, schedule):
        xs = np.linspace(-6, 6, 21)[:, None]
        assert np.array_equal(
            rectify.rectified_noisy_density(biased_1d, schedule, 0, Rectifier(TargetMarginal.uniform(2)), xs),
            rectify.rectified_density(biased_1d, Rectifier(TargetMarginal.uniform(2)), xs),
        )

    def test_identity_weighting(self, biased_1d, schedule):
        # target equal to the true marginal leaves the density unchanged
        rect = Rectifier(TargetMarginal(np.array([0.8, 0.2])))
        xs = np.linspace(-6, 6, 21)[:, None]
        got = rectify.rectified_noisy_density(biased_1d, schedule, 300, rect, xs)
        assert np.allclose(got, worldmodel.noisy_density(biased_1d, schedule, 300, xs), rtol=1e-12)

    def test_matches_convolved_clean_rectified(self, biased_1d, schedule):
        from recdistill.oracle import convolve_density

        grid = np.linspace(-14, 14, 2801)
        rect = Rectifier(TargetMarginal.uniform(2))
        clean = rectify.rectified_density(biased_1d, rect, grid[:, None])
        for t in (50, 300, 700):
            via_convolution = convolve_density(grid, clean, schedule, t)
            direct = rectify.rectified_noisy_density(biased_1d, schedule, t, rect, grid[:, None])
            rel = np.max(np.abs(via_convolution - direct)) / np.max(direct)
            assert rel < 1e-3


def _r(rect, post, marginal):
    """r = sum_c f(c) / max(p(c), epsilon_floor) * posterior(c), as `rectify.correction` forms it."""
    return (weight_function(rect.target, marginal, rect.epsilon_floor) * post).sum(-1)


class TestRValue:
    def test_all_uniform(self):
        rect = Rectifier(target=TargetMarginal.uniform(2))
        assert _r(rect, np.array([0.5, 0.5]), np.array([0.5, 0.5])) == pytest.approx(1.0)

    def test_single_term(self):
        rect = Rectifier(target=TargetMarginal(np.array([0.5, 0.5])))
        assert _r(rect, np.array([1.0, 0.0]), np.array([0.8, 0.2])) == pytest.approx(0.625)

    def test_convexity_bound(self):
        rng = np.random.default_rng(4)
        rect = Rectifier(target=TargetMarginal.uniform(3))
        for _ in range(50):
            post = rng.dirichlet(np.ones(3))
            marg = rng.dirichlet(np.ones(3) * 2.0) * 0.98 + 0.02 / 3
            r = _r(rect, post, marg)
            assert r <= np.max(rect.target.probs / marg) + 1e-12


class TestGradLogR:
    def test_symmetry_point_zero(self, balanced_1d, schedule):
        rect = Rectifier(target=TargetMarginal.uniform(2))
        g = grad_log_r(rect, balanced_1d, schedule, 300, np.zeros(1), np.array([0.5, 0.5]))
        assert abs(g[0]) < 1e-12

    def test_identity_weights_zero_everywhere(self, biased_1d, schedule):
        rect = Rectifier(target=TargetMarginal(np.array([0.8, 0.2])))
        for x in (-3.0, 0.0, 2.0):
            g = grad_log_r(rect, biased_1d, schedule, 400, np.array([x]), np.array([0.8, 0.2]))
            assert abs(g[0]) < 1e-12

    def test_matches_finite_differences_2d(self, mixed_2d, schedule):
        rect = Rectifier(target=TargetMarginal.uniform(2))
        marginal = np.array([0.7, 0.3])
        rng = np.random.default_rng(21)
        for _ in range(10):
            xt = rng.uniform(-3, 3, size=2)
            t = int(rng.integers(1, 1001))
            exact = grad_log_r(rect, mixed_2d, schedule, t, xt, marginal)

            def log_r(v):
                post = worldmodel.category_posterior(mixed_2d, schedule, t, v)
                return np.log(_r(rect, post, marginal))

            fd = finite_difference_grad(log_r, xt, 1e-5)
            assert np.max(np.abs(fd - exact)) / max(np.max(np.abs(exact)), 1e-12) < 1e-5

    def test_callable_posterior_path(self, mixed_2d, schedule):
        # the classifier-direct source (the clean posterior applied to the
        # noisy point) takes finite differences, which agree with the
        # analytic reweighting gradient of the clean mixture
        rect = Rectifier(target=TargetMarginal.uniform(2), posterior_source="classifier-direct")
        marginal = np.array([0.6, 0.4])
        xt = np.array([0.8, -0.4])
        got = grad_log_r(rect, mixed_2d, schedule, 500, xt, marginal)
        log_w = np.log(weight_function(rect.target, marginal, rect.epsilon_floor))
        want = worldmodel.grad_log_reweight(mixed_2d, None, 0, xt, log_w)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-4

    @pytest.mark.parametrize("shape", [(), (6,)])
    def test_zero_target_weight_is_minus_inf_without_warning(self, mixed_2d, schedule, shape):
        # the exact-mixture correction takes log w; a zero target weight is
        # log 0 = -inf, which gives the category no weight and numpy no warning
        rect = Rectifier(target=TargetMarginal(np.array([1.0, 0.0])))
        rng = np.random.default_rng(22)
        t = 300 if not shape else rng.integers(1, 1001, size=shape)
        xt = rng.uniform(-3.0, 3.0, size=shape + (2,))
        marginal = rng.dirichlet(np.ones(2), size=shape or None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = grad_log_r(rect, mixed_2d, schedule, t, xt, marginal)
        w = weight_function(rect.target, marginal, rect.epsilon_floor)
        log_w = np.full(w.shape, -np.inf)
        log_w[..., 0] = np.log(w[..., 0])
        assert np.array_equal(got, worldmodel.grad_log_reweight(mixed_2d, schedule, t, xt, log_w))


def _per_axis_grad_log_r(rect, m, schedule, t, xt, marginal):
    """The classifier-backed central differences one axis at a time, two
    posterior calls per axis: the reference for the stacked evaluation."""
    xt = np.asarray(xt, dtype=float)
    w = weight_function(rect.target, marginal, rect.epsilon_floor)

    def log_r(x):
        return np.log(np.sum(w * source_posterior(rect, m, schedule, t, x), axis=-1))

    h = rectify.FD_STEP * (1.0 + np.linalg.norm(xt, axis=-1))
    out = np.empty_like(xt)
    for j in range(xt.shape[-1]):
        step = np.zeros_like(xt)
        step[..., j] = h
        fp, fm = log_r(xt + step), log_r(xt - step)
        rounding = 4.0 * np.finfo(float).eps * (1.0 + np.abs(fp) + np.abs(fm))
        out[..., j] = np.where(np.abs(fp - fm) <= rounding, 0.0, fp - fm) / (2.0 * h)
    return out


CLASSIFIER_SOURCES = ("classifier-on-tweedie", "classifier-direct")


class TestStackedFiniteDifferences:
    """grad_log_r evaluates xt and all 2d shifted points in one posterior call."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), k=st.integers(2, 4),
           n=st.integers(0, 6), source=st.sampled_from(CLASSIFIER_SOURCES))
    def test_bitwise_equal_to_per_axis_loop(self, schedule, seed, dim, k, n, source):
        # n = 0 is the scalar form: one step, a (d,) point and a (K,) marginal;
        # otherwise (n,) steps, (n, d) points and one marginal per row
        rng = np.random.default_rng(seed)
        m = random_mixture(rng, dim, k)
        rect = Rectifier(target=TargetMarginal(rng.dirichlet(np.ones(k))), posterior_source=source)
        shape = () if n == 0 else (n,)
        t = int(rng.integers(1, 1001)) if n == 0 else rng.integers(1, 1001, size=n)
        xt = rng.uniform(-4.0, 4.0, size=shape + (dim,))
        marginal = rng.dirichlet(np.ones(k), size=shape or None)
        got = grad_log_r(rect, m, schedule, t, xt, marginal)
        assert got.shape == xt.shape
        assert np.array_equal(got, _per_axis_grad_log_r(rect, m, schedule, t, xt, marginal))

    @pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stack_blocks(self, schedule, monkeypatch, lead, dim):
        # the points the clean posterior sees: block 0 is xt, block 1 + j is
        # xt + h e_j and block 1 + d + j is xt - h e_j, with
        # h = FD_STEP (1 + |xt|), bit for bit
        rng = np.random.default_rng(dim)
        m = random_mixture(rng, dim, 2)
        rect = Rectifier(target=TargetMarginal.uniform(2), posterior_source="classifier-direct")
        xt = rng.uniform(-4.0, 4.0, size=lead + (dim,))
        t = rng.integers(1, 1001, size=lead) if lead else 500
        seen = []
        posterior = worldmodel.category_posterior

        def recording(m, schedule, t, x):
            seen.append(x)
            return posterior(m, schedule, t, x)

        monkeypatch.setattr(worldmodel, "category_posterior", recording)
        rectify.correction(rect, m, schedule, t, xt, rng.dirichlet(np.ones(2), size=lead or None),
                           worldmodel._steps(m, schedule, t), np.eye(dim))
        [stack] = seen
        h = rectify.FD_STEP * (1.0 + np.linalg.norm(xt, axis=-1))
        assert stack.shape == (2 * dim + 1,) + xt.shape
        assert np.array_equal(stack[0], xt)
        for j in range(dim):
            step = np.zeros(xt.shape)
            step[..., j] = h
            assert np.array_equal(stack[1 + j], xt + step) and np.array_equal(stack[1 + dim + j], xt - step)

    @pytest.mark.parametrize("source", CLASSIFIER_SOURCES)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_mixture_passes_per_call(self, schedule, monkeypatch, source, dim):
        # one stack of 2d + 1 blocks (xt, then the shifted points); Tweedie
        # denoising costs one noisy pass over the stack (the noise
        # prediction) before the clean posterior's pass, and the direct
        # source makes the prior's noisy pass at the points first, for the
        # caller; neither count grows with the dimension
        rng = np.random.default_rng(dim)
        m = random_mixture(rng, dim, 3)
        rect = Rectifier(target=TargetMarginal.uniform(3), posterior_source=source)
        calls = []
        components = worldmodel._components

        def counting(*args):
            calls.append(np.shape(args[-1]))
            return components(*args)

        monkeypatch.setattr(worldmodel, "_components", counting)
        grad_log_r(rect, m, schedule, rng.integers(1, 1001, size=5), rng.standard_normal((5, dim)),
                   rng.dirichlet(np.ones(3), size=5))
        stack = (2 * dim + 1, 5, dim)
        assert calls == {"classifier-on-tweedie": [stack, stack], "classifier-direct": [(5, dim), stack]}[source]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_in_run_tweedie_pass_takes_the_shifted_blocks(self, schedule, monkeypatch, dim):
        # in a run the one noisy pass covers the whole stack: block 0 (the
        # drawn points) gives eps_pre, every block its Tweedie estimate;
        # then one clean pass over the denoised stack
        rng = np.random.default_rng(dim)
        m = random_mixture(rng, dim, 3)
        rect = Rectifier(target=TargetMarginal.uniform(3), posterior_source="classifier-on-tweedie")
        cfg = distill.DistillConfig(method="usd", iters=10, rectifier=rect)
        particles = rng.standard_normal((5, dim))
        tables = distill.RunTables.build(m, schedule, cfg, worldmodel.Renderer())
        draws = distill._draw(tables, particles, 3, rng)
        calls = []
        components = worldmodel._components

        def counting(*args):
            calls.append(np.shape(args[-1]))
            return components(*args)

        monkeypatch.setattr(worldmodel, "_components", counting)
        distill.gradient(tables, draws, rng.dirichlet(np.ones(3)))
        assert calls == [(2 * dim + 1, 5, dim), (2 * dim + 1, 5, dim)]

    def test_non_finite_names_the_axis(self, mixed_2d, schedule, monkeypatch):
        # log r is non-finite only where the second coordinate exceeds 1,
        # which only the point shifted up along axis 1 reaches
        posterior = worldmodel.category_posterior

        def broken(m, schedule, t, x):
            return np.where(x[..., 1:] > 1.0, np.nan, posterior(m, schedule, t, x))

        monkeypatch.setattr(worldmodel, "category_posterior", broken)
        rect = Rectifier(target=TargetMarginal.uniform(2), posterior_source="classifier-direct")
        with pytest.raises(NumericError, match="along axis 1 "):
            grad_log_r(rect, mixed_2d, schedule, 300, np.array([0.3, 1.0]), np.array([0.5, 0.5]))


class TestCorrectionPass:
    """`correction` returns the prior's pass at the points themselves, which
    a run's eps_pre reads, whatever points its posterior source evaluates."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), k=st.integers(2, 4), n=st.integers(0, 6),
           source=st.sampled_from(rectify.POSTERIOR_SOURCES), diagonal=st.booleans())
    def test_pass_equals_fresh_components(self, schedule, seed, dim, k, n, source, diagonal):
        # n = 0 is the scalar form: one step, a (d,) point and a (K,) marginal
        rng = np.random.default_rng(seed)
        m = random_mixture(rng, dim, k, diagonal=diagonal)
        rect = Rectifier(target=TargetMarginal(rng.dirichlet(np.ones(k))), posterior_source=source)
        shape = () if n == 0 else (n,)
        t = int(rng.integers(1, 1001)) if n == 0 else rng.integers(1, 1001, size=n)
        xt = rng.uniform(-4.0, 4.0, size=shape + (dim,))
        marginal = rng.dirichlet(np.ones(k), size=shape or None)
        steps = worldmodel._steps(m, schedule, t)
        *_, got = rectify.correction(rect, m, schedule, t, xt, marginal, steps, np.eye(dim))
        want = worldmodel._components(m, steps, xt)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)


class TestOnePassCorrection:
    """The responsibility-difference gradients against explicitly rebuilt mixtures."""

    @staticmethod
    def _close(got, ref):
        return np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), k=st.integers(2, 4),
           t_kind=st.sampled_from(["zero", "one", "random"]))
    def test_matches_rebuilt_mixture_scores(self, schedule, seed, dim, k, t_kind):
        rng = np.random.default_rng(seed)
        m = random_mixture(rng, dim, k)
        t = {"zero": 0, "one": 1, "random": int(rng.integers(1, 1001))}[t_kind]
        xt = rng.uniform(-4.0, 4.0, size=dim)
        base = worldmodel.score(m, schedule, t, xt)

        rect = Rectifier(target=TargetMarginal(rng.dirichlet(np.ones(k))))
        marginal = rng.dirichlet(np.ones(k))
        w = weight_function(rect.target, marginal, rect.epsilon_floor)
        new_w = m.weights * w[m.category_of]
        reweighted = PoseLabeledMixture(weights=new_w / new_w.sum(), means=m.means, covs=m.covs,
                                        category_of=m.category_of, num_categories=k)
        assert self._close(grad_log_r(rect, m, schedule, t, xt, marginal),
                           worldmodel.score(reweighted, schedule, t, xt) - base)

        category = int(rng.integers(k))
        keep = m.category_of == category
        sub = PoseLabeledMixture(weights=m.weights[keep] / m.weights[keep].sum(), means=m.means[keep],
                                 covs=m.covs[keep], category_of=np.zeros(int(keep.sum()), dtype=int),
                                 num_categories=1)
        assert self._close(distill._control_grad_log_posterior(m, schedule, t, xt, category),
                           worldmodel.score(sub, schedule, t, xt) - base)


class TestRandomizedMarginalConstraint:
    def test_many_instances(self, schedule):
        rng = np.random.default_rng(99)
        for dim in (1, 2):
            m = random_mixture(rng, dim=dim, num_categories=int(rng.integers(2, 5)))
            target = TargetMarginal.uniform(m.num_categories)
            w = weight_function(target, m.category_weights(), 1e-4)
            box = [(-12, 12)] * dim
            pts = 800 if dim == 1 else 300
            marg = np.empty(m.num_categories)
            for c in range(m.num_categories):
                def mass(p, c=c, w=w):
                    post = worldmodel.category_posterior(m, None, 0, p)
                    return worldmodel.density(m, p) * w[c] * post[..., c]
                marg[c] = grid_integrate(mass, box, pts)
            assert np.max(np.abs(marg - target.probs)) < 1e-3
