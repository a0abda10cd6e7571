import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats

from recdistill import distill as D
from recdistill import worldmodel
from recdistill.errors import ConfigurationError, DivergenceError
from recdistill.oracle import finite_difference_grad
from recdistill.rectify import Rectifier, TargetMarginal
from recdistill.schedule import build_schedule, loss_weight
from recdistill.worldmodel import PoseLabeledMixture, Renderer

from conftest import random_mixture


@pytest.fixture(scope="module")
def narrow_biased():
    """Well-separated 0.8 / 0.2 modes used by the full-run checks."""
    return PoseLabeledMixture(
        weights=np.array([0.8, 0.2]),
        means=np.array([[2.0], [-2.0]]),
        covs=np.array([[[0.01]], [[0.01]]]),
        category_of=np.array([0, 1]),
        num_categories=2,
    )


@pytest.fixture(scope="module")
def narrow_balanced():
    return PoseLabeledMixture(
        weights=np.array([0.5, 0.5]),
        means=np.array([[2.0], [-2.0]]),
        covs=np.array([[[0.01]], [[0.01]]]),
        category_of=np.array([0, 1]),
        num_categories=2,
    )


def _particles(values, seed=0):
    return D.ParticleSet(particles=np.asarray(values, dtype=float), renderer=Renderer(), seed=seed)


def _draw(ps, tables, iteration, rng):
    return D._draw(tables, ps.particles, iteration, rng)


def _gradient(tables, draws, marginal=None):
    """The one gradient rule with the inputs the run's config selects."""
    return D.gradient(tables, draws, marginal)[0]


def _tables(m, schedule, *cfgs):
    return [D.RunTables.build(m, schedule, cfg, Renderer()) for cfg in cfgs]


class TestVariationalEps:
    def test_single_particle_recovers_noise(self, schedule):
        ps = _particles([[1.5]])
        t, eps = 300, np.array([0.7])
        xt = schedule.alpha[t] * 1.5 + schedule.sigma[t] * eps
        got = D.variational_eps(ps.renderer, schedule, t, 0, xt, worldmodel.render_poses(ps.renderer, ps.particles))
        assert got == pytest.approx(eps, rel=1e-12)

    def test_symmetric_pair_points_along_input(self, schedule):
        ps = _particles([[1.0, 0.0], [-1.0, 0.0]])
        t = 400
        xt = np.array([0.0, 0.8])
        got = D.variational_eps(ps.renderer, schedule, t, 0, xt, worldmodel.render_poses(ps.renderer, ps.particles))
        # symmetry cancels the component along the particle axis
        assert abs(got[0]) < 1e-12 and got[1] != 0.0

    def test_matches_finite_difference_of_log_mixture(self, schedule):
        ps = _particles([[0.5, -0.2], [1.3, 0.9], [-0.7, 0.1]])
        t = 350
        a, s = schedule.alpha[t], schedule.sigma[t]
        xt = np.array([0.4, 0.2])

        def log_q(v):
            comps = -0.5 * np.sum((v - a * ps.particles) ** 2, axis=1) / s**2
            return float(scipy.special.logsumexp(comps) - np.log(len(comps)))

        fd = finite_difference_grad(log_q, xt, 1e-5)
        got = D.variational_eps(ps.renderer, schedule, t, 0, xt, worldmodel.render_poses(ps.renderer, ps.particles))
        assert np.max(np.abs(got - (-s * fd))) / np.max(np.abs(got)) < 1e-5


class TestBnfInterval:
    def test_documented_blocks(self):
        assert D.bnf_interval(0, 4000, 2, 1000) == (500, 980)
        assert D.bnf_interval(1500, 4000, 2, 1000) == (20, 980)
        assert D.bnf_interval(3999, 4000, 2, 1000) == (20, 500)

    def test_middle_blocks_interpolate(self):
        # four expanding blocks: the lower bound walks 750 -> 20 linearly
        lows = [D.bnf_interval(i * 1000, 8000, 4, 1000)[0] for i in range(4)]
        assert lows == [750, 507, 263, 20]

    def test_bounds_valid_everywhere(self):
        for n_i in (1, 2, 3, 5):
            for it in range(0, 6000, 111):
                lo, hi = D.bnf_interval(it, 6000, n_i, 1000)
                assert 1 <= lo < hi <= 1000

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            D.bnf_interval(10, 10, 2, 1000)
        with pytest.raises(ValueError):
            D.bnf_interval(0, 100, 0, 1000)


class TestGradNormAlign:
    def test_double_secondary(self):
        p = np.array([3.0, 4.0])
        out = D.grad_norm_align(p, 2 * p)
        assert np.allclose(out, p, atol=1e-12)

    def test_zero_secondary(self):
        out = D.grad_norm_align(np.array([1.0, 1.0]), np.zeros(2))
        assert np.array_equal(out, np.zeros(2))

    def test_random_vectors(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p, s = rng.standard_normal(3), rng.standard_normal(3)
            out = D.grad_norm_align(p, s)
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(p), abs=1e-12)
            cos = out @ s / (np.linalg.norm(out) * np.linalg.norm(s))
            assert cos == pytest.approx(1.0, abs=1e-12)


def _mean_gradient(method, m, schedule, theta, n_draws, seed, **cfg_kwargs):
    cfg = D.DistillConfig(method=method, iters=n_draws, bnf_n_i=1, **cfg_kwargs)
    ps = _particles([theta], seed=seed)
    rng = np.random.default_rng(seed)
    tables = D.RunTables.build(m, schedule, cfg, ps.renderer)
    grads = []
    for it in range(n_draws):
        draws = _draw(ps, tables, it, rng)
        grads.append(_gradient(tables, draws)[0])
    return np.array(grads)


class TestSdsStep:
    def test_stationary_at_target_mean(self, schedule):
        m = PoseLabeledMixture(
            weights=np.array([1.0]), means=np.array([[1.2]]), covs=np.array([[[0.5]]]),
            category_of=np.array([0]), num_categories=1,
        )
        grads = _mean_gradient("sds", m, schedule, [1.2], 10_000, seed=0)
        se = grads.std() / np.sqrt(len(grads))
        assert abs(grads.mean()) < 3 * se

    def test_points_toward_target(self, schedule):
        m = PoseLabeledMixture(
            weights=np.array([1.0]), means=np.array([[1.2]]), covs=np.array([[[0.5]]]),
            category_of=np.array([0]), num_categories=1,
        )
        for theta in (-2.0, 4.0):
            grads = _mean_gradient("sds", m, schedule, [theta], 2000, seed=1)
            # descent moves theta toward the mode: gradient sign matches theta - mu
            assert np.sign(grads.mean()) == np.sign(theta - 1.2)

    def test_omega_changes_magnitude_not_sign(self, schedule):
        m = PoseLabeledMixture(
            weights=np.array([1.0]), means=np.array([[1.2]]), covs=np.array([[[0.5]]]),
            category_of=np.array([0]), num_categories=1,
        )
        g_const = _mean_gradient("sds", m, schedule, [4.0], 2000, seed=2, omega_kind="constant-one")
        g_sigma = _mean_gradient("sds", m, schedule, [4.0], 2000, seed=2, omega_kind="sigma-squared")
        assert np.sign(g_const.mean()) == np.sign(g_sigma.mean())
        assert not np.isclose(g_const.mean(), g_sigma.mean())


class TestVsdStep:
    def test_single_particle_equals_sds(self, schedule, narrow_biased):
        ps = _particles([[0.3]])
        cfg_s = D.DistillConfig(method="sds", iters=100)
        cfg_v = D.DistillConfig(method="vsd", iters=100)
        sds, vsd = _tables(narrow_biased, schedule, cfg_s, cfg_v)
        rng = np.random.default_rng(5)
        for it in range(20):
            draws = _draw(ps, sds, it, rng)
            a = _gradient(sds, draws)
            b = _gradient(vsd, draws)
            assert np.allclose(a, b, atol=1e-10)

    def test_no_drift_when_particles_match_prior(self, schedule):
        # resample particles i.i.d. from the prior each round: the gradient
        # distribution is then symmetric about zero (no systematic drift)
        m = PoseLabeledMixture(
            weights=np.array([1.0]), means=np.array([[0.0]]), covs=np.array([[[1.0]]]),
            category_of=np.array([0]), num_categories=1,
        )
        rng = np.random.default_rng(8)
        cfg = D.DistillConfig(method="vsd", iters=50)
        # gradients within one round share a particle set, so aggregate to
        # one independent mean per round before testing
        round_means = []
        tables = D.RunTables.build(m, schedule, cfg, Renderer())
        for it in range(50):
            ps = _particles(m.sample(16, rng))
            draws = _draw(ps, tables, it, rng)
            round_means.append(_gradient(tables, draws).mean())
        round_means = np.array(round_means)
        se = round_means.std(ddof=1) / np.sqrt(len(round_means))
        assert abs(round_means.mean()) < 3 * se
        stat = scipy.stats.wilcoxon(round_means)
        assert stat.pvalue > 0.01


class TestUsdStep:
    def test_balanced_equals_vsd_bitwise(self, schedule, narrow_balanced):
        rect = Rectifier(target=TargetMarginal.uniform(2), marginal_source="exact-mc")
        cfg_u = D.DistillConfig(method="usd", iters=100, rectifier=rect)
        cfg_v = D.DistillConfig(method="vsd", iters=100)
        ps = _particles([[1.8], [-2.2], [0.4]])
        usd, vsd = _tables(narrow_balanced, schedule, cfg_u, cfg_v)
        rng = np.random.default_rng(9)
        for it in range(20):
            draws = _draw(ps, usd, it, rng)
            u = _gradient(usd, draws, narrow_balanced.category_weights())
            v = _gradient(vsd, draws)
            assert np.array_equal(u, v)

    def test_decomposition_identity(self, schedule, narrow_biased):
        # usd - vsd == -omega * sigma * J^T grad log r under shared draws
        rect = Rectifier(target=TargetMarginal.uniform(2), marginal_source="exact-mc")
        cfg = D.DistillConfig(method="usd", iters=100, rectifier=rect, grad_norm_align=False)
        cfg_v = D.DistillConfig(method="vsd", iters=100)
        omega = loss_weight(schedule, cfg.omega_kind)
        ps = _particles([[1.5], [-0.7]])
        rng = np.random.default_rng(10)
        from recdistill.rectify import grad_log_r

        usd, vsd = _tables(narrow_biased, schedule, cfg, cfg_v)
        for it in range(20):
            draws = _draw(ps, usd, it, rng)
            u = _gradient(usd, draws, narrow_biased.category_weights())
            v = _gradient(vsd, draws)
            for i in range(2):
                t = int(draws.t[i])
                g_r = grad_log_r(rect, narrow_biased, schedule, t, draws.xt[i],
                                 narrow_biased.category_weights())
                expected = -omega[t] * schedule.sigma[t] * g_r
                diff = u[i] - v[i]
                assert np.max(np.abs(diff - expected)) <= 1e-10 * max(1.0, np.max(np.abs(expected)))

    def test_grad_log_r_matches_finite_differences(self, schedule, narrow_biased):
        from recdistill.oracle import finite_difference_grad
        from recdistill.rectify import Rectifier, grad_log_r, weight_function

        rect = Rectifier(target=TargetMarginal.uniform(2))
        marginal = np.array([0.65, 0.35])
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(100):
            t = int(rng.integers(1, 1001))
            xt = rng.uniform(-3, 3, size=1)
            exact = grad_log_r(rect, narrow_biased, schedule, t, xt, marginal)

            def log_r(v):
                post = worldmodel.category_posterior(narrow_biased, schedule, t, v)
                return np.log((weight_function(rect.target, marginal, rect.epsilon_floor) * post).sum(-1))

            fd = finite_difference_grad(log_r, xt, 1e-5)
            assert np.max(np.abs(fd - exact)) < 1e-5 * (1.0 + np.max(np.abs(exact)))
            checked += 1
        assert checked == 100


class TestCtrlStep:
    def test_saturated_posterior_gives_negligible_control(self, schedule, narrow_balanced):
        # particle deep inside the commanded basin at a low step: the
        # control term (the difference from plain VSD) nearly vanishes
        cfg = D.DistillConfig(method="ctrl", iters=100, control_category=0,
                              grad_norm_align=False)
        cfg_v = D.DistillConfig(method="vsd", iters=100)
        ps = _particles([[2.0]])
        t = np.array([30])
        draws = D._Draws(t=t, pose=np.array([0]), eps=np.array([[0.05]]),
                         xt=np.array([[schedule.alpha[30] * 2.0 + schedule.sigma[30] * 0.05]]),
                         rendered=worldmodel.render_poses(ps.renderer, ps.particles))
        ctrl, vsd = _tables(narrow_balanced, schedule, cfg, cfg_v)
        c = _gradient(ctrl, draws)
        v = _gradient(vsd, draws)
        assert np.max(np.abs(c - v)) < 1e-6

    def test_commanded_basin_wins(self, schedule, narrow_balanced):
        for cat in (0, 1):
            ps = D.ParticleSet.initialise(8, 1, Renderer(), seed=3, scale=2.0)
            cfg = D.DistillConfig(method="ctrl", eta1=0.03, iters=600,
                                  control_category=cat, grad_norm_align=False)
            report = D.run(ps, narrow_balanced, schedule, cfg)
            assert report.metrics[-1][1][cat] >= 0.75

    def test_requires_control_category(self):
        with pytest.raises(ConfigurationError):
            D.DistillConfig(method="ctrl", iters=10)
        with pytest.raises(ConfigurationError):
            D.DistillConfig(method="vsd", iters=10, control_category=1)

    @pytest.mark.parametrize("cat", [2, -1])
    def test_out_of_range_category_rejected_before_the_run(self, schedule, narrow_balanced, cat):
        ps = D.ParticleSet.initialise(4, 1, Renderer(), seed=0)
        cfg = D.DistillConfig(method="ctrl", iters=5, control_category=cat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=rf"control_category {cat} outside \[0, 2\)"):
                D.run(ps, narrow_balanced, schedule, cfg)


class TestRun:
    def test_seed_determinism(self, schedule, narrow_biased):
        rect = Rectifier(target=TargetMarginal.uniform(2))
        cfg = D.DistillConfig(method="usd", iters=60, rectifier=rect, snapshot_every=20)
        reports = []
        for _ in range(2):
            ps = D.ParticleSet.initialise(4, 1, Renderer(), seed=7, scale=2.0)
            reports.append(D.run(ps, narrow_biased, schedule, cfg))
        a, b = reports
        assert np.array_equal(a.final_particles, b.final_particles)
        for (ia, sa), (ib, sb) in zip(a.snapshots, b.snapshots):
            assert ia == ib and np.array_equal(sa, sb)
        for (ia, ea), (ib, eb) in zip(a.ema_trace, b.ema_trace):
            assert ia == ib and np.array_equal(ea, eb)

    def test_particle_count_conserved(self, schedule, narrow_biased):
        ps = D.ParticleSet.initialise(5, 1, Renderer(), seed=1, scale=2.0)
        cfg = D.DistillConfig(method="vsd", iters=30)
        report = D.run(ps, narrow_biased, schedule, cfg)
        assert report.final_particles.shape == (5, 1)
        for _, snap in report.snapshots:
            assert snap.shape == (5, 1)

    def test_balanced_usd_reproduces_vsd_trajectory(self, schedule, narrow_balanced):
        rect = Rectifier(target=TargetMarginal.uniform(2), marginal_source="exact-mc")
        ps = D.ParticleSet.initialise(4, 1, Renderer(), seed=2, scale=2.0)
        r_usd = D.run(ps, narrow_balanced, schedule,
                      D.DistillConfig(method="usd", iters=80, rectifier=rect))
        r_vsd = D.run(ps, narrow_balanced, schedule,
                      D.DistillConfig(method="vsd", iters=80))
        assert np.array_equal(r_usd.final_particles, r_vsd.final_particles)

    def test_divergence_aborts_with_diagnostic(self, schedule, narrow_biased):
        ps = D.ParticleSet.initialise(2, 1, Renderer(), seed=0, scale=2.0)
        cfg = D.DistillConfig(method="sds", eta1=1e9, iters=50, omega_kind="constant-one")
        with pytest.raises(DivergenceError, match=r"iteration \d+ \(method 'sds'\)"):
            D.run(ps, narrow_biased, schedule, cfg)

    @staticmethod
    def _poisoned_run(schedule, m, monkeypatch, value, method="vsd"):
        """A run whose gradient sets particle 1 to `value` at iteration 2
        (from zero particles, eta1 = 1 and 0 - (-value) is value exactly)
        and leaves every particle where it is otherwise."""
        iteration = iter(range(6))

        def gradient(tables, draws, marginal=None):
            g = np.zeros_like(draws.xt)
            if next(iteration) == 2:
                g[1] = -value
            return g, None

        monkeypatch.setattr(D, "gradient", gradient)
        ps = D.ParticleSet(particles=np.zeros((3, 1)), renderer=Renderer(), seed=0)
        return D.run(ps, m, schedule, D.DistillConfig(method=method, eta1=1.0, iters=6))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.nextafter(1e6, 2e6), -np.nextafter(1e6, 2e6)])
    @pytest.mark.parametrize("method", ["sds", "vsd"])
    def test_non_finite_or_too_large_particle_diverges(self, schedule, narrow_biased, monkeypatch, value, method):
        with pytest.raises(DivergenceError, match=rf"at iteration 2 \(method '{method}'\)"):
            self._poisoned_run(schedule, narrow_biased, monkeypatch, value, method)

    @pytest.mark.parametrize("value", [1e6, -1e6])
    def test_particle_at_the_bound_runs_on(self, schedule, narrow_biased, monkeypatch, value):
        report = self._poisoned_run(schedule, narrow_biased, monkeypatch, value)
        assert np.array_equal(report.final_particles, [[0.0], [value], [0.0]])

    @pytest.mark.parametrize("angles", [(0.0,), (0.0, 1.0, 2.0)])
    def test_renderer_angles_must_match_categories(self, schedule, mixed_2d, monkeypatch, angles):
        # the run checks the renderer once, before its first draw, since
        # the draws' poses cannot leave [0, K) and are not checked again
        monkeypatch.setattr(D, "_draw", lambda *a: pytest.fail("drew before the check"))
        ps = D.ParticleSet.initialise(4, 2, Renderer(kind="rotation", angles=angles), seed=0)
        with pytest.raises(ConfigurationError, match=rf"rotation renderer has {len(angles)} angles, need 2"):
            D.run(ps, mixed_2d, schedule, D.DistillConfig(method="vsd", iters=3))

    def test_identity_renderer_with_angles_rejected(self, schedule, mixed_2d, monkeypatch):
        # Renderer("identity", angles) may be built, but a run would drop the angles
        monkeypatch.setattr(D, "_draw", lambda *a: pytest.fail("drew before the check"))
        ps = D.ParticleSet.initialise(4, 2, Renderer(kind="identity", angles=(0.0, 1.0, 2.0)), seed=0)
        with pytest.raises(ConfigurationError, match=r"renderer_angles \[0.0, 1.0, 2.0\] need renderer = rotation"):
            D.run(ps, mixed_2d, schedule, D.DistillConfig(method="vsd", iters=3))

    def test_rotation_needs_a_2d_mixture(self, schedule, narrow_biased, monkeypatch):
        monkeypatch.setattr(D, "_draw", lambda *a: pytest.fail("drew before the check"))
        ps = D.ParticleSet.initialise(4, 1, Renderer(kind="rotation", angles=(0.0, 1.0)), seed=0)
        with pytest.raises(ConfigurationError, match="renderer = rotation needs a 2D mixture, got dimension 1"):
            D.run(ps, narrow_biased, schedule, D.DistillConfig(method="vsd", iters=3))

    def test_report_files_roundtrip(self, tmp_path, schedule, narrow_biased):
        ps = D.ParticleSet.initialise(3, 1, Renderer(), seed=4, scale=2.0)
        cfg = D.DistillConfig(method="vsd", iters=40, snapshot_every=10)
        report = D.run(ps, narrow_biased, schedule, cfg)
        D.write_report(report, tmp_path / "a")
        D.write_report(report, tmp_path / "b")
        for name in ("particles.csv", "ema.csv", "metrics.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        header = (tmp_path / "a" / "particles.csv").read_text().splitlines()[0]
        assert header == "iter,particle,x0"

    def test_write_rows_writes_each_float_cell_as_its_repr(self, tmp_path):
        # numpy's float64 is a float; integers, names and empty cells pass through
        rows = [[1, np.float64(0.1), 1e-300, -0.0], [np.int64(5), "", "a,b", 0.1 + 0.2]]
        D.write_rows(tmp_path / "x.csv", ["i", "p", "q", "r"], iter(rows))
        assert (tmp_path / "x.csv").read_bytes() == b'i,p,q,r\n1,0.1,1e-300,-0.0\n5,,"a,b",0.30000000000000004\n'
        assert [D.cell(v) for v in rows[0]] == [1, "0.1", "1e-300", "-0.0"]


class TestPoseDraw:
    """_draw takes its poses with searchsorted on the run's normalised CDF,
    which is how Generator.choice draws with probabilities: the same
    indices, and the generator left in the same state.  That rests on
    numpy's implementation of choice, so a numpy that changes it fails here."""

    @pytest.mark.parametrize("probs", [None, [0.7, 0.3], [0.45, 0.0, 0.55], [0.1, 0.2, 0.3, 0.4]])
    def test_same_draws_as_rng_choice(self, schedule, probs):
        k = 3 if probs is None else len(probs)
        m = PoseLabeledMixture(weights=np.full(k, 1.0 / k), means=np.arange(k, dtype=float)[:, None],
                               covs=np.ones((k, 1, 1)), category_of=np.arange(k), num_categories=k)
        cfg = D.DistillConfig(method="sds", iters=5, pose_probs=None if probs is None else np.array(probs))
        p = np.full(k, 1.0 / k) if probs is None else np.array(probs)
        tables = D.RunTables.build(m, schedule, cfg, Renderer())
        for seed in range(200):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for it, n in enumerate((1, 3, 16, 64, 7)):
                draws = D._draw(tables, np.zeros((n, 1)), it, rng)
                lo, hi = D.bnf_interval(it, cfg.iters, cfg.bnf_n_i, schedule.num_steps)
                assert np.array_equal(draws.t, ref.integers(lo, hi + 1, size=n))
                assert np.array_equal(draws.pose, ref.choice(k, size=n, p=p))
                assert np.array_equal(draws.eps, ref.standard_normal((n, 1)))
                assert rng.bit_generator.state == ref.bit_generator.state
                assert probs is None or not np.any(p[draws.pose] == 0.0)

    @pytest.mark.parametrize("probs", [[0.5, 0.6], [0.5, np.nan], [1.0], [-0.5, 1.5]])
    def test_invalid_pose_probs(self, schedule, narrow_biased, probs):
        cfg = D.DistillConfig(method="sds", iters=5, pose_probs=np.array(probs))
        with pytest.raises(ConfigurationError, match="pose_probs must be 2 finite, non-negative"):
            D.RunTables.build(narrow_biased, schedule, cfg, Renderer())


class TestRunTables:
    @pytest.mark.parametrize("method, source", [
        ("sds", None), ("ctrl", None), ("usd", "exact-mixture"), ("usd", "classifier-on-tweedie"),
    ])
    def test_built_once_per_run(self, schedule, narrow_biased, monkeypatch, method, source):
        # the mixture formed its clean components when it was built; a run
        # forms the noisy ones once, for its table, and builds the identity
        # `rectify.correction` steps along once, not per iteration
        formed, weights, eyes = [], [], []
        form, weight, eye = worldmodel._form, D.loss_weight, np.eye
        monkeypatch.setattr(worldmodel, "_form", lambda *a: (formed.append(a), form(*a))[1])
        monkeypatch.setattr(D, "loss_weight", lambda *a: (weights.append(a), weight(*a))[1])
        monkeypatch.setattr(np, "eye", lambda *a, **k: (eyes.append(a), eye(*a, **k))[1])
        kwargs = dict(method=method, iters=12, snapshot_every=4)
        if method == "ctrl":
            kwargs["control_category"] = 1
        if method == "usd":
            kwargs["rectifier"] = Rectifier(target=TargetMarginal.uniform(2), posterior_source=source)
        D.run(D.ParticleSet.initialise(4, 1, Renderer(), seed=3), narrow_biased, schedule, D.DistillConfig(**kwargs))
        assert len(formed) == 1 and len(weights) == 1 and len(eyes) < kwargs["iters"]

    def test_rows_are_the_per_step_values(self, schedule, narrow_biased):
        cfg = D.DistillConfig(method="ctrl", control_category=0, iters=5, omega_kind="constant-one", n_t=4)
        tables = D.RunTables.build(narrow_biased, schedule, cfg, Renderer())
        assert np.array_equal(tables.omega, loss_weight(schedule, "constant-one"))
        assert np.array_equal(tables.pose_cdf, [0.5, 1.0])
        assert np.array_equal(tables.control_log_w, [0.0, -np.inf])

    @pytest.mark.parametrize("method, source", [
        ("sds", None), ("vsd", None), ("ctrl", None), ("usd", "exact-mixture"),
        ("usd", "classifier-on-tweedie"), ("usd", "classifier-direct"),
    ])
    def test_one_context_serves_any_particle_set(self, schedule, method, source):
        # the draws and the gradient are functions of the tables, the
        # particles, the generator and the marginal: one context drives two
        # particle sets bit for bit as fresh tables do, and is left unchanged
        rng = np.random.default_rng(17)
        m = random_mixture(rng, 2, 3)
        renderer = Renderer("rotation", (0.3, 2.0, 4.1))
        kwargs = dict(method=method, iters=10)
        if method == "ctrl":
            kwargs["control_category"] = 2
        if method == "usd":
            kwargs["rectifier"] = Rectifier(target=TargetMarginal.uniform(3), posterior_source=source)
        cfg = D.DistillConfig(**kwargs)
        shared = D.RunTables.build(m, schedule, cfg, renderer)
        arrays = (*shared.steps, shared.omega, shared.pose_cdf, shared.control_log_w, shared.eye)
        before = [None if a is None else a.copy() for a in arrays]
        for seed, n in ((1, 5), (2, 9)):
            particles = 2.0 * np.random.default_rng(seed).standard_normal((n, 2))
            marginal = rng.dirichlet(np.ones(3), size=n) if method == "usd" else None
            results = []
            for tables in (shared, D.RunTables.build(m, schedule, cfg, renderer)):
                draws = D._draw(tables, particles, 4, np.random.default_rng(seed))
                grads, rows = D.gradient(tables, draws, marginal)
                results.append([draws.t, draws.pose, draws.eps, draws.xt, draws.rendered, grads, rows])
            assert all(np.array_equal(a, b) for a, b in zip(*results))
        for a, b in zip(arrays, before):
            assert a is b is None or np.array_equal(a, b)


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            D.DistillConfig(method="gradient-flow")

    def test_usd_needs_rectifier(self):
        with pytest.raises(ConfigurationError):
            D.DistillConfig(method="usd")

    def test_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            D.DistillConfig(method="vsd", eta1=0.0)
