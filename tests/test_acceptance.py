"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with -s or in captured
output) and asserts the same condition.  The distillation checks run full
multi-seed optimizations and dominate the suite's runtime.
"""

import numpy as np
import pytest

from conftest import random_mixture
from recdistill import cli
from recdistill import distill as D
from recdistill import rectify, worldmodel
from recdistill.estimator import IntervalEma, alpha_from_n_ema, ema_lookup, ema_update
from recdistill.metrics import marginal_tv
from recdistill.oracle import convolve_density, finite_difference_grad, grid_integrate
from recdistill.rectify import Rectifier, TargetMarginal, grad_log_r, weight_function
from recdistill.schedule import build_schedule, loss_weight
from recdistill.worldmodel import PoseLabeledMixture, Renderer


def _verdict(label: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def _biased_instance():
    return PoseLabeledMixture(
        weights=np.array([0.8, 0.2]),
        means=np.array([[2.0], [-2.0]]),
        covs=np.array([[[0.01]], [[0.01]]]),
        category_of=np.array([0, 1]),
        num_categories=2,
    )


def _symmetric_instance(var=0.0625):
    return PoseLabeledMixture(
        weights=np.array([0.5, 0.5]),
        means=np.array([[2.0], [-2.0]]),
        covs=np.array([[[var]], [[var]]]),
        category_of=np.array([0, 1]),
        num_categories=2,
    )


def _run(m, schedule, seed, **cfg_kwargs):
    defaults = dict(eta1=0.03, iters=4000)
    defaults.update(cfg_kwargs)
    ps = D.ParticleSet.initialise(16, 1, Renderer(), seed=seed, scale=2.0)
    return D.run(ps, m, schedule, D.DistillConfig(**defaults))


def test_acceptance_1_rectified_marginal_matches_uniform_target(schedule):
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(10):
        dim = 1 if i % 2 == 0 else 2
        k = [2, 3, 4][i % 3]
        m = random_mixture(rng, dim, k)
        target = TargetMarginal.uniform(k)
        w = rectify.weight_function(target, m.category_weights(), 1e-4)
        box = [(m.means[:, j].min() - 8.0, m.means[:, j].max() + 8.0) for j in range(dim)]
        npts = 4001 if dim == 1 else 361
        mass = np.empty(k)
        for c in range(k):
            def cat_mass(pts, c=c):
                post = worldmodel.category_posterior(m, None, 0, pts)
                return w[c] * post[..., c] * worldmodel.density(m, pts)
            mass[c] = grid_integrate(cat_mass, box, npts)
        worst = max(worst, marginal_tv(mass / mass.sum(), target.probs))
    _verdict("1: rectified category marginal hits the uniform target (10 random mixtures)",
             worst < 1e-3, f"max TV {worst:.2e}")


def test_acceptance_2_reweighting_commutes_with_forward_diffusion(schedule, biased_1d):
    grid = np.linspace(-14.0, 14.0, 2801)
    rect = Rectifier(TargetMarginal.uniform(2))
    clean = rectify.rectified_density(biased_1d, rect, grid[:, None])
    worst = 0.0
    for t in (50, 300, 700):
        diffused = convolve_density(grid, clean, schedule, t)
        formula = rectify.rectified_noisy_density(biased_1d, schedule, t, rect, grid[:, None])
        worst = max(worst, float(np.max(np.abs(diffused - formula)) / np.max(formula)))
    _verdict("2: diffusing the reweighted density matches the closed-form noisy reweighting",
             worst < 1e-3, f"max rel err {worst:.2e}")


def test_acceptance_3_gradient_decomposition_and_fd_check(schedule):
    m = _biased_instance()
    rect = Rectifier(target=TargetMarginal.uniform(2), marginal_source="exact-mc")
    cfg_u = D.DistillConfig(method="usd", iters=100, rectifier=rect, grad_norm_align=False)
    cfg_v = D.DistillConfig(method="vsd", iters=100)
    omega = loss_weight(schedule, cfg_u.omega_kind)
    ps = D.ParticleSet(particles=np.array([[1.5], [-0.7], [0.2]]), renderer=Renderer(), seed=0)
    rng = np.random.default_rng(13)
    worst_decomp = 0.0
    usd, vsd = D.RunTables.build(m, schedule, cfg_u, ps.renderer), D.RunTables.build(m, schedule, cfg_v, ps.renderer)
    for it in range(25):
        draws = D._draw(usd, ps.particles, it, rng)
        u, _ = D.gradient(usd, draws, m.category_weights())
        v, _ = D.gradient(vsd, draws)
        for i in range(ps.num_particles):
            t = int(draws.t[i])
            g_r = grad_log_r(rect, m, schedule, t, draws.xt[i], m.category_weights())
            expected = -omega[t] * schedule.sigma[t] * g_r
            scale = max(np.max(np.abs(expected)), 1.0)
            worst_decomp = max(worst_decomp, float(np.max(np.abs((u[i] - v[i]) - expected)) / scale))

    rect_fd = Rectifier(target=TargetMarginal.uniform(2))
    marginal = np.array([0.65, 0.35])
    rng = np.random.default_rng(12)
    worst_fd = 0.0
    for _ in range(100):
        t = int(rng.integers(1, 1001))
        xt = rng.uniform(-3.0, 3.0, size=1)
        exact = grad_log_r(rect_fd, m, schedule, t, xt, marginal)

        def log_r(v):
            post = worldmodel.category_posterior(m, schedule, t, v)
            return np.log((weight_function(rect_fd.target, marginal, rect_fd.epsilon_floor) * post).sum(-1))

        fd = finite_difference_grad(log_r, xt, 1e-5)
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - exact)) / (1.0 + np.max(np.abs(exact)))))
    _verdict("3: correction term decomposition exact; log-ratio gradient matches finite differences",
             worst_decomp < 1e-10 and worst_fd < 1e-5,
             f"decomp {worst_decomp:.2e}, fd {worst_fd:.2e}")


def test_acceptance_4_rectified_distillation_fixes_the_category_split(schedule):
    m = _biased_instance()
    rect = Rectifier(target=TargetMarginal.uniform(2))
    vsd_hits = usd_hits = 0
    details = []
    for seed in range(5):
        r_vsd = _run(m, schedule, seed, method="vsd")
        r_usd = _run(m, schedule, seed, method="usd", rectifier=rect)
        split_v = r_vsd.metrics[-1][1]
        _, split_u, entropy_u = r_usd.metrics[-1]
        vsd_hits += np.max(np.abs(split_v - [0.8, 0.2])) <= 0.1
        usd_hits += (np.max(np.abs(split_u - [0.5, 0.5])) <= 0.1
                     and entropy_u >= 0.95 * np.log(2))
        details.append(f"s{seed}: vsd {split_v[0]:.2f}, usd {split_u[0]:.2f}/{entropy_u:.2f}")
    _verdict("4: plain distillation keeps the 0.8/0.2 bias, rectified distillation reaches 0.5/0.5",
             vsd_hits >= 4 and usd_hits >= 4, "; ".join(details))


def test_acceptance_5_interval_ema_tracks_a_stationary_marginal(schedule):
    m = _biased_instance()
    alpha_ok = abs(alpha_from_n_ema(100) - (1.0 - 0.1 ** 0.01)) < 1e-12

    # frozen particle population with a 0.75 / 0.25 split
    population = np.concatenate([np.full(12, 2.0), np.full(4, -2.0)])
    n_iters, n_s = 4000, 100

    def reference_marginals(rng):
        refs = np.empty((10, 2))
        for interval in range(10):
            acc = []
            for t in range(interval * 100 + 1, (interval + 1) * 100 + 1):
                x0 = rng.choice(population, size=200)
                xt = schedule.alpha[t] * x0 + schedule.sigma[t] * rng.standard_normal(200)
                acc.append(worldmodel.category_posterior(m, schedule, t, xt[:, None]).mean(axis=0))
            refs[interval] = np.mean(acc, axis=0)
        return refs

    refs = reference_marginals(np.random.default_rng(99))

    def stationary_max_tv(n_ema):
        rng = np.random.default_rng(5)
        state = IntervalEma.create(1000, 10, 2, n_ema=n_ema)
        worst = 0.0
        for it in range(n_iters):
            t = int(rng.integers(1, 1001))
            x0 = rng.choice(population, size=n_s)
            xt = schedule.alpha[t] * x0 + schedule.sigma[t] * rng.standard_normal(n_s)
            obs = worldmodel.category_posterior(m, schedule, t, xt[:, None]).mean(axis=0)
            ema_update(state, t, obs)
            if it >= 3 * n_iters // 4:
                tv = marginal_tv(ema_lookup(state, t), refs[state.interval_of(t)])
                worst = max(worst, tv)
        return worst

    fast, slow = stationary_max_tv(100), stationary_max_tv(10_000)
    _verdict("5: interval-EMA marginal tracks a stationary population; an overly slow EMA does not",
             alpha_ok and fast < 0.05 and slow >= 0.05,
             f"alpha ok {alpha_ok}, tv(n_ema=100) {fast:.3f}, tv(n_ema=10000) {slow:.3f}")


def test_acceptance_6_pose_classifier_suite():
    from recdistill import classifier as C

    pc = C.PoseClassifier.from_images(C.template_images())

    def predictions(imgs, mode="full"):
        stack = np.stack([im.pixels for im in imgs])
        probs = np.concatenate([C.classify(pc, stack[i : i + 16], mode=mode) for i in range(0, len(stack), 16)])
        return [pc.categories[k] for k in np.argmax(probs, axis=1)]

    self_ok = predictions(C.template_images().values()) == list(C.template_images())
    corpus = list(C.generate_corpus(100, seed=0))

    def accuracy(mode, pair=None):
        imgs = [im for im in corpus if pair is None or im.true_category in pair]
        hits = sum(pred == im.true_category for pred, im in zip(predictions(imgs, mode), imgs))
        return hits / len(imgs)

    full = accuracy("full")
    mirror_drop = accuracy("full", ("left", "right")) - accuracy("texture-only", ("left", "right"))
    texture_drop = accuracy("full", ("front", "back")) - accuracy("orientation-only", ("front", "back"))
    _verdict("6: pose classifier self-classifies, generalizes, and needs both cues",
             self_ok and full >= 0.95 and mirror_drop >= 0.2 and texture_drop >= 0.2,
             f"self {self_ok}, acc {full:.3f}, drops {mirror_drop:.2f}/{texture_drop:.2f}")


def test_acceptance_7_control_mode_steers_every_particle(schedule):
    m = _symmetric_instance()
    worst = 1.0
    for cat in (0, 1):
        for seed in range(5):
            report = _run(m, schedule, seed, method="ctrl", iters=2000,
                          control_category=cat, grad_norm_align=False)
            worst = min(worst, report.metrics[-1][1][cat])
    _verdict("7: single-category control captures >= 95% of particles for both targets",
             worst >= 0.95, f"min capture {worst:.3f}")


def test_acceptance_8_degraded_estimators_reproduce_their_failure_modes(schedule):
    m = _biased_instance()
    direct = Rectifier(target=TargetMarginal.uniform(2), posterior_source="classifier-direct")
    presampled = Rectifier(target=TargetMarginal.uniform(2), marginal_source="fixed-presampled")
    direct_splits, presampled_misses = [], 0
    for seed in range(5):
        r_dir = _run(m, schedule, seed, method="usd", rectifier=direct)
        direct_splits.append(r_dir.metrics[-1][1][0])
        r_pre = _run(m, schedule, seed, method="usd", rectifier=presampled)
        presampled_misses += marginal_tv(r_pre.metrics[-1][1], [0.5, 0.5]) > 0.1
    direct_mean = float(np.mean(direct_splits))
    _verdict("8: saturated-posterior rectifier is inert; frozen-marginal rectifier misses uniform",
             abs(direct_mean - 0.8) <= 0.1 and presampled_misses >= 3,
             f"inert mean split {direct_mean:.3f}, frozen misses {presampled_misses}/5")


def test_acceptance_9_cli_outputs_are_byte_deterministic(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[mixture]\nnum_categories = 2\ncomponents =\n"
        "    0.8 |  2.0 | 0.01 | 0\n    0.2 | -2.0 | 0.01 | 1\n"
        "[rectifier]\ntarget = uniform\n"
        "[distill]\nmethod = usd\niters = 120\nparticles = 8\ndim = 1\n"
        "init_scale = 2.0\nsnapshot_every = 40\n"
        "[demo]\ngrid_points = 401\ntimes = 300\n"
    )
    trees = []
    for rep in ("a", "b"):
        root = tmp_path / rep
        assert cli.main(["distill", "--config", str(cfg), "--seed", "11",
                         "--out-dir", str(root / "distill")]) == 0
        assert cli.main(["rectify-demo", "--config", str(cfg),
                         "--out-dir", str(root / "demo")]) == 0
        assert cli.main(["glyphs", "--out-dir", str(root / "glyphs"),
                         "--per-category", "3", "--seed", "2"]) == 0
        assert cli.main(["classify", "--templates", str(root / "glyphs" / "templates"),
                         "--inputs", str(root / "glyphs" / "corpus"),
                         "--out-dir", str(root / "classify")]) == 0
        trees.append({
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        })
    _verdict("9: every CLI pipeline is byte-identical under a repeated (config, seed)",
             trees[0] == trees[1], f"{len(trees[0])} files compared")
