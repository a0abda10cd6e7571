import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdistill import distill, worldmodel
from recdistill.errors import ConfigurationError
from recdistill.oracle import finite_difference_grad, grid_integrate, mc_posterior_mean
from recdistill.worldmodel import PoseLabeledMixture, Renderer, render, render_jacobian

from conftest import random_mixture


def _single(mean, cov, d=1):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return PoseLabeledMixture(
        weights=np.array([1.0]), means=mean[None, :],
        covs=np.asarray(cov, dtype=float).reshape(1, mean.size, mean.size),
        category_of=np.array([0]), num_categories=1,
    )


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            PoseLabeledMixture(
                weights=np.array([0.6, 0.6]), means=np.zeros((2, 1)),
                covs=np.ones((2, 1, 1)), category_of=np.array([0, 1]), num_categories=2,
            )

    def test_huge_weights_rejected_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="positive and sum to 1"):
                PoseLabeledMixture(
                    weights=np.array([1.0, 8.988465674311579e307, 8.98846567431158e307]), means=np.zeros((3, 1)),
                    covs=np.ones((3, 1, 1)), category_of=np.array([0, 0, 0]), num_categories=1,
                )

    def test_every_category_needs_mass(self):
        with pytest.raises(ConfigurationError, match=r"p\(c\) > 0"):
            PoseLabeledMixture(
                weights=np.array([1.0]), means=np.zeros((1, 1)),
                covs=np.ones((1, 1, 1)), category_of=np.array([0]), num_categories=2,
            )

    def test_covariances_must_be_positive_definite(self):
        with pytest.raises(ConfigurationError):
            PoseLabeledMixture(
                weights=np.array([1.0]), means=np.zeros((1, 2)),
                covs=np.array([[[1.0, 2.0], [2.0, 1.0]]]),
                category_of=np.array([0]), num_categories=1,
            )


class TestBox:
    """Means lie in [-BOX, BOX], where distill.run keeps particles, and every
    covariance eigenvalue is at least covariance_floor(d), so no squared
    distance between two points of the box overflows in a pass."""

    def test_box_is_the_runs_divergence_bound(self):
        assert worldmodel.BOX == 1e6 and distill.BOX is worldmodel.BOX

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_floor_keeps_distances_and_scores_finite(self, d):
        floor = worldmodel.covariance_floor(d)
        reach = 2.0 * worldmodel.BOX * np.sqrt(d)         # longest distance between two points of the box
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(reach**2 / floor) and np.isfinite((reach / floor) ** 2 * d)

    @pytest.mark.parametrize("mean", [1e300, -1e6 * (1 + 2e-16), 2e6])
    def test_mean_outside_box_rejected(self, mean):
        with pytest.raises(ConfigurationError, match=r"means must lie within \[-1e6, 1e6\]"):
            _single([0.0, mean], np.eye(2), d=2)

    def test_mean_on_box_edge_accepted(self):
        _single([-1e6, 1e6], np.eye(2), d=2)

    @pytest.mark.parametrize("cov", [[[1e-307]], [[1.0, 0.0], [0.0, 1e-200]]], ids=["1d", "2d-diagonal"])
    def test_covariance_below_floor_rejected(self, cov):
        d = len(cov)
        with pytest.raises(ConfigurationError, match="covariance eigenvalues must be at least"):
            _single(np.zeros(d), cov, d=d)

    def test_pass_at_floor_and_box_corners_finite(self, schedule):
        d = 2
        m = _single([worldmodel.BOX, -worldmodel.BOX], np.eye(d) * worldmodel.covariance_floor(d), d=d)
        x = np.array([[-worldmodel.BOX, worldmodel.BOX], [worldmodel.BOX, -worldmodel.BOX]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (0, 1, 500):
                s = worldmodel.score(m, schedule if t else None, t, x)
                assert np.isfinite(s).all() and np.isfinite((s * s).sum(axis=-1)).all()


class TestDensity:
    def test_standard_normal_at_origin(self):
        m = _single([0.0, 0.0], np.eye(2))
        assert worldmodel.density(m, np.zeros(2)) == pytest.approx(1.0 / (2 * np.pi), rel=1e-12)

    def test_symmetry(self, balanced_1d):
        for x in (0.3, 1.7, -2.5):
            a = worldmodel.density(balanced_1d, np.array([x]))
            b = worldmodel.density(balanced_1d, np.array([-x]))
            assert a == pytest.approx(b, rel=1e-12)

    def test_three_component_mixture_integrates_to_one(self, mixed_2d):
        val = grid_integrate(lambda pts: worldmodel.density(mixed_2d, pts), [(-10, 10), (-10, 10)], 400)
        assert val == pytest.approx(1.0, abs=1e-3)


class TestNoisyDensity:
    def test_t0_equals_clean_bitwise(self, mixed_2d, schedule):
        pts = np.random.default_rng(0).uniform(-3, 3, size=(20, 2))
        assert np.array_equal(
            worldmodel.noisy_density(mixed_2d, schedule, 0, pts),
            worldmodel.density(mixed_2d, pts),
        )

    def test_terminal_step_is_nearly_standard_normal(self, schedule):
        # residual deviation is bounded by alpha_T * |mean| * |x|, so keep
        # the means small enough for the 1e-3 relative target
        m = PoseLabeledMixture(
            weights=np.array([0.6, 0.4]), means=np.array([[0.05, -0.03], [-0.04, 0.05]]),
            covs=np.stack([np.eye(2) * 0.5, np.eye(2) * 1.5]),
            category_of=np.array([0, 1]), num_categories=2,
        )
        pts = np.random.default_rng(1).uniform(-2, 2, size=(50, 2))
        got = worldmodel.noisy_density(m, schedule, 1000, pts)
        ref = np.exp(-0.5 * np.sum(pts**2, axis=1)) / (2 * np.pi)
        assert np.max(np.abs(got / ref - 1.0)) < 1e-3

    def test_integrates_to_one_at_mid_t(self, mixed_2d, schedule):
        val = grid_integrate(
            lambda pts: worldmodel.noisy_density(mixed_2d, schedule, 500, pts),
            [(-10, 10), (-10, 10)], 400,
        )
        assert val == pytest.approx(1.0, abs=1e-3)


class TestScore:
    def test_single_gaussian_closed_form(self, schedule):
        m = _single([1.5], [[1.0]])
        t = 300
        a, s = schedule.alpha[t], schedule.sigma[t]
        xt = np.array([0.4])
        expected = -(xt - a * 1.5) / (a**2 + s**2)
        assert worldmodel.score(m, schedule, t, xt) == pytest.approx(expected, rel=1e-12)

    def test_symmetric_midpoint_zero(self, balanced_1d, schedule):
        assert worldmodel.score(balanced_1d, schedule, 400, np.zeros(1)) == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_differences(self, mixed_2d, schedule):
        rng = np.random.default_rng(7)
        for _ in range(10):
            xt = rng.uniform(-3, 3, size=2)
            t = int(rng.integers(1, 1001))
            fd = finite_difference_grad(
                lambda v: np.log(worldmodel.noisy_density(mixed_2d, schedule, t, v)), xt, 1e-4
            )
            exact = worldmodel.score(mixed_2d, schedule, t, xt)
            assert np.max(np.abs(fd - exact)) / np.max(np.abs(exact)) < 1e-5


class TestEpsPretrain:
    def test_is_minus_sigma_score(self, mixed_2d, schedule):
        xt = np.array([0.5, -1.0])
        t = 600
        assert np.array_equal(
            worldmodel.eps_pretrain(mixed_2d, schedule, t, xt),
            -schedule.sigma[t] * worldmodel.score(mixed_2d, schedule, t, xt),
        )

    def test_near_dirac_data(self, schedule):
        m = _single([2.0], [[1e-10]])
        t, xt = 500, np.array([0.8])
        a, s = schedule.alpha[t], schedule.sigma[t]
        got = worldmodel.eps_pretrain(m, schedule, t, xt)
        assert got == pytest.approx((xt - a * 2.0) / s, rel=1e-6)

    def test_tweedie_matches_mc_posterior_mean(self, biased_1d, schedule):
        t, xt = 500, np.array([-0.8])
        a, s = schedule.alpha[t], schedule.sigma[t]
        eps = worldmodel.eps_pretrain(biased_1d, schedule, t, xt)
        tweedie = (xt - s * eps) / a
        est = mc_posterior_mean(biased_1d, schedule, t, xt, 100_000, seed=9)
        assert abs(tweedie[0] - est.mean[0]) / abs(est.mean[0]) < 1e-2


class TestCategoryPosterior:
    def test_symmetric_midpoint(self, balanced_1d, schedule):
        post = worldmodel.category_posterior(balanced_1d, schedule, 300, np.zeros(1))
        assert post == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_deep_basin_confident(self, biased_1d):
        post = worldmodel.category_posterior(biased_1d, None, 0, np.array([-3.0]))
        assert post[0] > 0.999

    def test_matches_bayes_recomputation(self, schedule):
        rng = np.random.default_rng(13)
        m = random_mixture(rng, dim=2, num_categories=3)
        for _ in range(5):
            xt = rng.uniform(-3, 3, size=2)
            t = int(rng.integers(1, 1001))
            post = worldmodel.category_posterior(m, schedule, t, xt)
            assert post.sum() == pytest.approx(1.0, abs=1e-12)
            # Bayes rule from per-category joint densities
            joints = np.zeros(3)
            for c in range(3):
                keep = m.category_of == c
                if not np.any(keep):
                    continue
                sub = PoseLabeledMixture(
                    weights=m.weights[keep] / m.weights[keep].sum(),
                    means=m.means[keep], covs=m.covs[keep],
                    category_of=np.zeros(int(keep.sum()), dtype=int), num_categories=1,
                )
                joints[c] = m.weights[keep].sum() * worldmodel.noisy_density(sub, schedule, t, xt)
            assert np.max(np.abs(post - joints / joints.sum())) < 1e-10


class TestCategoryMarginal:
    def test_clean_marginal_matches_weights(self, biased_1d, schedule):
        got = worldmodel.category_marginal(biased_1d, schedule, 0, 100_000, seed=2)
        assert np.max(np.abs(got - [0.8, 0.2])) < 0.01

    def test_terminal_marginal_matches_weights(self, biased_1d, schedule):
        got = worldmodel.category_marginal(biased_1d, schedule, 1000, 100_000, seed=2)
        assert np.max(np.abs(got - [0.8, 0.2])) < 0.01

    def test_error_shrinks_with_samples(self, biased_1d, schedule):
        spreads = []
        for n in (2000, 32000):
            ests = [worldmodel.category_marginal(biased_1d, schedule, 500, n, seed=s)[0] for s in range(8)]
            spreads.append(np.std(ests))
        assert spreads[1] < spreads[0] / 2  # 16x samples -> ~4x smaller spread


class TestRenderer:
    def test_identity(self):
        r = Renderer()
        theta = np.array([1.0, 2.0])
        assert np.array_equal(render(r, theta, 0), theta)
        assert np.array_equal(render_jacobian(r, theta, 0), np.eye(2))

    def test_quarter_rotation(self):
        r = Renderer(kind="rotation", angles=(0.0, np.pi / 2))
        out = render(r, np.array([1.0, 0.0]), 1)
        assert np.allclose(out, [0.0, 1.0], atol=1e-12)

    def test_norm_preserved(self):
        r = Renderer(kind="rotation", angles=(0.3, 1.1, 2.7))
        rng = np.random.default_rng(3)
        for _ in range(10):
            theta = rng.standard_normal(2)
            c = int(rng.integers(0, 3))
            assert np.linalg.norm(render(r, theta, c)) == pytest.approx(np.linalg.norm(theta), abs=1e-12)

    def test_jacobian_matches_finite_differences(self):
        r = Renderer(kind="rotation", angles=(0.0, 0.9))
        theta = np.array([0.7, -1.3])
        jac = render_jacobian(r, theta, 1)
        for i in range(2):
            fd = finite_difference_grad(lambda v: render(r, v, 1)[i], theta, 1e-6)
            assert np.max(np.abs(fd - jac[i])) < 1e-7

    def test_pose_out_of_range(self):
        r = Renderer(kind="rotation", angles=(0.0,))
        with pytest.raises(ValueError):
            render(r, np.zeros(2), 5)
        for pose in (5, -1, np.array([[0], [3]])):
            with pytest.raises(ValueError, match=r"pose (5|-1|3) outside configured categories \[0, 1\)"):
                render_jacobian(r, np.zeros((2, 3, 2)), pose)

    def test_cached_rotations_equal_cos_sin_construction(self):
        # the per-pose matrices are built once; each lookup must equal the
        # matrix built from cos and sin of that pose's angle, bit for bit,
        # for one pose, a pose per row, and the (m, 1) poses against (n, 2)
        # parameters that variational_eps renders
        rng = np.random.default_rng(8)
        angles = tuple(rng.uniform(-2 * np.pi, 2 * np.pi, 5))
        r = Renderer(kind="rotation", angles=angles)

        def reference(c, batch):
            angle = np.asarray(angles)[c]
            cos, sin = np.cos(angle), np.sin(angle)
            rot = np.stack([cos, -sin, sin, cos], axis=-1).reshape(angle.shape + (2, 2))
            return np.broadcast_to(rot, np.broadcast_shapes(angle.shape, batch) + (2, 2))

        theta = rng.standard_normal((7, 2))
        for c in (3, rng.integers(5, size=7), rng.integers(5, size=(4, 1))):
            got = render_jacobian(r, theta, c)
            assert np.array_equal(got, reference(c, theta.shape[:-1]))
            assert np.array_equal(render(r, theta, c), np.einsum("...ij,...j->...i", got, theta))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_per_pose_render_equals_render(self, k):
        # the one einsum over every pose, and the gathers from it, equal
        # render per (particle, pose) pair bit for bit
        rng = np.random.default_rng(k)
        r = Renderer(kind="rotation", angles=tuple(rng.uniform(-2 * np.pi, 2 * np.pi, k)))
        for n in (1, 5, 16):
            theta = 3.0 * rng.standard_normal((n, 2))
            rendered = worldmodel.render_poses(r, theta)
            assert rendered.shape == (k, n, 2)
            for c in (*range(k), rng.integers(k, size=n), rng.integers(k, size=(4, 1))):
                assert np.array_equal(worldmodel.at_pose(r, rendered, c), render(r, theta, c))
            with pytest.raises(ValueError, match="outside configured categories"):
                worldmodel.at_pose(r, rendered, -1)
        identity = Renderer()
        theta = rng.standard_normal((5, 3))
        rendered = worldmodel.render_poses(identity, theta)
        assert rendered.shape == (1, 5, 3)
        assert np.array_equal(worldmodel.at_pose(identity, rendered, np.array([0, 1, 1, 0, 1])), theta)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_jacobian_transpose_equals_einsum(self, d):
        # gradient's J^T v: for the identity v + 0.0, the einsum over the
        # identity Jacobian bit for bit (its accumulator turns -0.0 into
        # +0.0) wherever the einsum is finite; a row holding inf or NaN is
        # non-finite in both, though for d >= 2 the einsum also spreads
        # 0 * inf = NaN over the row.  For a rotation the einsum itself.
        rng = np.random.default_rng(d)
        v = rng.standard_normal((40, d)) * 10.0 ** rng.uniform(-300.0, 300.0, (40, d))
        v[rng.random(v.shape) < 0.2] = rng.choice([-0.0, 0.0])
        v[:4, 0] = [np.finfo(float).max, -np.finfo(float).max, -0.0, 0.0]
        v[4:7, -1] = [np.inf, -np.inf, np.nan]
        pose = rng.integers(0, 3, size=40)
        r = Renderer()
        got = worldmodel._jacobian_t(r, pose, v)
        einsum = np.einsum("nji,nj->ni", render_jacobian(r, v, pose), v)
        finite = np.isfinite(einsum).all(axis=-1)
        assert np.array_equal(np.isfinite(got).all(axis=-1), finite) and not finite[4:7].any()
        assert np.array_equal(got[finite], einsum[finite]) and not np.signbit(got[got == 0]).any()
        assert np.array_equal(np.signbit(got[finite]), np.signbit(einsum[finite]))
        if d == 1:
            assert np.array_equal(got, einsum, equal_nan=True)
        else:
            rotation = Renderer(kind="rotation", angles=(0.0, 0.4, np.pi))
            w = v[:, :2]
            assert np.array_equal(worldmodel._jacobian_t(rotation, pose, w),
                                  np.einsum("nji,nj->ni", render_jacobian(rotation, w, pose), w), equal_nan=True)

    def test_angles_must_be_finite(self):
        with pytest.raises(ConfigurationError, match="finite"):
            Renderer(kind="rotation", angles=(0.0, np.inf))
        assert Renderer(kind="identity", angles=(np.nan,)).kind == "identity"   # unused by identity


class TestRunTablesAt:
    """A pass over the rows a run's tables gather equals the public
    evaluators called one point at a time, bit for bit; t = 0 is the clean
    mixture."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), k=st.integers(2, 4), n=st.integers(1, 6),
           diagonal=st.booleans())
    def test_gathered_pass_equals_per_point_evaluators(self, schedule, seed, dim, k, n, diagonal):
        rng = np.random.default_rng(seed)
        m = random_mixture(rng, dim, k, diagonal=diagonal)
        tables = distill.RunTables.build(m, schedule, distill.DistillConfig(method="sds", iters=1))
        t = rng.integers(0, schedule.num_steps + 1, size=n)
        t[rng.integers(n)] = 0
        x = rng.uniform(-4.0, 4.0, size=(n, dim))
        log_w = np.log(rng.dirichlet(np.ones(k), size=n))

        def per_point(fn, *args):
            # the clean mixture is schedule None; eps_pretrain needs sigma_0 = 0 from the schedule
            return np.array([fn(m, None if ti == 0 and fn is not worldmodel.eps_pretrain else schedule, int(ti), *row)
                             for ti, *row in zip(t, x, *args)])

        gathered = worldmodel._components(m, tables.at(t), x)
        assert np.array_equal(worldmodel._score(gathered), per_point(worldmodel.score))
        assert np.array_equal(worldmodel._eps_pretrain(schedule, t, gathered), per_point(worldmodel.eps_pretrain))
        assert np.array_equal(worldmodel._category_posterior(m, gathered), per_point(worldmodel.category_posterior))
        assert np.array_equal(np.exp(worldmodel._logsumexp(gathered.logits, axis=-1)),
                              per_point(worldmodel.noisy_density))
        assert np.array_equal(worldmodel._grad_log_reweight(m, gathered, log_w),
                              per_point(worldmodel.grad_log_reweight, log_w))
        for i in range(n):
            alone = worldmodel._components(m, worldmodel._steps(m, schedule if t[i] else None, int(t[i])), x[i])
            assert all(np.array_equal(a[i], b) for a, b in zip(gathered, alone))

    def test_table_holds_every_step(self, schedule, biased_1d):
        tables = distill.RunTables.build(biased_1d, schedule, distill.DistillConfig(method="sds", iters=1))
        assert tables.steps.covs.shape == (schedule.num_steps + 1, 2, 1, 1)
        assert tables.mixture is biased_1d and tables.schedule is schedule


class TestDiagonalSolve:
    """Where every covariance of the mixture is diagonal, `_components`
    divides by the noisy variances where it would solve the systems:
    numpy's LAPACK solve of a diagonal system is that division, bit for bit
    but for the sign of a zero (the elimination may turn a -0.0 of the
    right-hand side into +0.0 when d >= 2), and a reciprocal multiply is
    not.  That rests on numpy's and its LAPACK's implementation, so one
    that changes it fails here, by name, and not only in the identity
    table."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("cov_lead, diff_lead", [
        ((), ()), ((), (9,)), ((16,), (16,)), ((16,), (3, 16)), ((64,), (64,)),
    ])
    def test_division_equals_solve(self, d, cov_lead, diff_lead):
        # _components' shapes: one step's covariances against points of any
        # leading shape, a run's gathered rows per point, and the gathered
        # rows against a finite-difference stack of points
        rng = np.random.default_rng(11 + d)

        def wide(shape):        # random mantissas over 30 decades
            return rng.uniform(0.5, 2.0, shape) * 10.0 ** rng.uniform(-15.0, 15.0, shape)

        for _ in range(100):
            covs = wide(cov_lead + (3, 1, d)) * np.eye(d)
            if d > 1:
                covs[..., 0, 1] = -0.0                      # a signed zero off the diagonal is still diagonal
            diff = wide(diff_lead + (3, d)) * rng.choice([-1.0, 1.0], diff_lead + (3, d))
            diff[rng.random(diff.shape) < 0.2] = rng.choice([-0.0, 0.0])
            divided = diff / covs.diagonal(0, -2, -1)
            solved = np.linalg.solve(covs, diff[..., None])[..., 0]
            assert np.array_equal(divided, solved)         # as numbers: -0.0 == +0.0
            same_sign = np.signbit(divided) == np.signbit(solved)
            assert same_sign.all() if d == 1 else same_sign[(diff != 0) | ~np.signbit(diff)].all()

    def test_diagonal_flag(self):
        # exact zeros off the diagonal, of either sign; 1-D is trivially diagonal
        assert _single([0.0], [[2.0]])._diagonal
        assert _single([0.0, 0.0], [[2.0, -0.0], [-0.0, 0.5]])._diagonal
        assert not _single([0.0, 0.0], [[2.0, 1e-300], [1e-300, 0.5]])._diagonal
        full = random_mixture(np.random.default_rng(3), 3, 2)
        diagonal = random_mixture(np.random.default_rng(3), 3, 2, diagonal=True)
        assert not full._diagonal and diagonal._diagonal
        assert np.array_equal(diagonal.covs, full.covs * np.eye(3))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pass_scores_equal_solve(self, schedule, monkeypatch, dim):
        # the gathered rows of a run and the clean components, against the solve
        rng = np.random.default_rng(12)
        m = random_mixture(rng, dim, 3, diagonal=True)
        tables = distill.RunTables.build(m, schedule, distill.DistillConfig(method="sds", iters=1))
        solve, solves = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda *a: (solves.append(1), solve(*a))[1])
        for _ in range(50):
            t = rng.integers(0, schedule.num_steps + 1, size=16)
            x = rng.standard_normal((16, dim)) * 10.0 ** rng.uniform(-8, 8, (16, dim))
            for steps in (tables.at(t), m._clean):
                got = worldmodel._components(m, steps, x).scores
                assert not solves
                expected = -solve(steps.covs, (x[:, None, :] - steps.means)[..., None])[..., 0]
                assert np.array_equal(got, expected)

    def test_full_covariances_are_solved(self, schedule, monkeypatch):
        # one off-diagonal pair makes the mixture full: a pass solves once
        m = _single([0.0, 0.0], [[2.0, 0.1], [0.1, 0.5]])
        solve, solves = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda *a: (solves.append(1), solve(*a))[1])
        x = np.random.default_rng(13).standard_normal((5, 2))
        worldmodel.score(m, schedule, 100, x)
        worldmodel.category_posterior(m, None, 0, x)
        assert solves == [1, 1]
