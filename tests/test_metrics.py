import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from recdistill.metrics import categorical_entropy, gaussian_frechet, marginal_tv


class TestCategoricalEntropy:
    def test_uniform_rows(self):
        rows = [np.full(3, 1 / 3)] * 5
        assert categorical_entropy(rows).entropy == pytest.approx(np.log(3), abs=1e-12)

    def test_one_hot_rows(self):
        rows = [[0.0, 1.0, 0.0]] * 4
        assert categorical_entropy(rows).entropy == 0.0

    def test_mixed_one_hot_rows_recover_split_entropy(self):
        rows = [[1.0, 0.0]] * 3 + [[0.0, 1.0]]
        report = categorical_entropy(rows)
        assert report.mean_probs == pytest.approx([0.75, 0.25])
        assert report.entropy == pytest.approx(-(0.75 * np.log(0.75) + 0.25 * np.log(0.25)))

    def test_permutation_invariant(self):
        rows = np.random.default_rng(0).dirichlet(np.ones(4), size=10)
        a = categorical_entropy(rows).entropy
        b = categorical_entropy(rows[:, [2, 0, 3, 1]]).entropy
        assert a == pytest.approx(b, abs=1e-12)

    def test_maximised_at_uniform(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rows = rng.dirichlet(np.ones(4), size=5)
            assert categorical_entropy(rows).entropy <= np.log(4) + 1e-12

    def test_rejects_non_simplex(self):
        with pytest.raises(ValueError):
            categorical_entropy([[0.7, 0.7]])
        with pytest.raises(ValueError):
            categorical_entropy(np.empty((0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            categorical_entropy([[bad, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            categorical_entropy([[0.5, 0.5], [bad, 0.5]])


class TestGaussianFrechet:
    def test_identical_sets(self):
        pts = np.random.default_rng(2).standard_normal((100, 2))
        assert gaussian_frechet(pts, pts) == pytest.approx(0.0, abs=1e-8)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((50, 2)), rng.standard_normal((60, 2)) + 1.0
        assert gaussian_frechet(a, b) == pytest.approx(gaussian_frechet(b, a), rel=1e-10)

    def test_known_population_value(self):
        # N(0, I) vs N((3,4), I): squared mean distance 25, matched covariances
        rng = np.random.default_rng(4)
        a = rng.standard_normal((10_000, 2))
        b = rng.standard_normal((10_000, 2)) + np.array([3.0, 4.0])
        assert gaussian_frechet(a, b) == pytest.approx(25.0, abs=0.5)

    def test_matches_scipy_sqrtm(self):
        import scipy.linalg

        rng = np.random.default_rng(6)
        for d in range(1, 6):
            for _ in range(20):
                a = rng.standard_normal((3 * d + 5, d)) @ rng.standard_normal((d, d))
                b = rng.standard_normal((3 * d + 7, d)) @ rng.standard_normal((d, d)) + rng.standard_normal(d)
                cov_a = np.cov(a, rowvar=False).reshape(d, d) + 1e-6 * np.eye(d)
                cov_b = np.cov(b, rowvar=False).reshape(d, d) + 1e-6 * np.eye(d)
                cross = scipy.linalg.sqrtm(cov_a @ cov_b).real
                want = np.sum((a.mean(axis=0) - b.mean(axis=0)) ** 2) + np.trace(cov_a + cov_b - 2.0 * cross)
                assert gaussian_frechet(a, b) == pytest.approx(want, rel=1e-10)

    def test_identical_one_dimensional_sets_are_exactly_zero(self):
        rng = np.random.default_rng(8)
        for scale in (1e-3, 1.0, 7.0, 1e4):
            for _ in range(50):
                pts = scale * rng.standard_normal((20, 1))
                assert gaussian_frechet(pts, pts) == 0.0

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            gaussian_frechet(np.zeros((2, 2)), np.zeros((10, 2)))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_frechet(np.zeros((10, 2)), np.zeros((10, 3)))


class TestMarginalTv:
    def test_equal(self):
        assert marginal_tv([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint(self):
        assert marginal_tv([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_biased_vs_uniform(self):
        assert marginal_tv([0.8, 0.2], [0.5, 0.5]) == pytest.approx(0.3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            marginal_tv([0.5, 0.5], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            marginal_tv([bad, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            marginal_tv([0.5, 0.5], [0.5, bad])


def test_cli_import_does_not_load_scipy():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = "import recdistill.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
