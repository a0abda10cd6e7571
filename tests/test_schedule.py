import numpy as np
import pytest

from recdistill.errors import ConfigurationError
from recdistill.schedule import build_schedule, loss_weight, perturb


class TestBuildSchedule:
    def test_first_step_alpha(self, schedule):
        assert schedule.alpha[1] == pytest.approx(np.sqrt(1.0 - 1e-4), abs=1e-12)

    def test_variance_preserving_identity(self, schedule):
        assert np.max(np.abs(schedule.alpha**2 + schedule.sigma**2 - 1.0)) < 1e-12

    def test_final_sigma_matches_cumulative_product(self, schedule):
        # independent recomputation in extended precision
        betas = np.linspace(1e-4, 0.02, 1000, dtype=np.longdouble)
        abar = np.cumprod(1.0 - betas)
        expected = float(np.sqrt(1.0 - abar[-1]))
        assert schedule.sigma[1000] == pytest.approx(expected, rel=1e-10)

    def test_monotone_coefficients(self, schedule):
        assert np.all(np.diff(schedule.alpha[1:]) < 0)
        assert np.all(np.diff(schedule.sigma[1:]) > 0)

    def test_endpoints(self, schedule):
        assert schedule.alpha[0] == 1.0 and schedule.sigma[0] == 0.0
        assert schedule.sigma[1000] >= 0.99

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            build_schedule(1)
        with pytest.raises(ConfigurationError):
            build_schedule(100, beta_min=0.02, beta_max=1e-4)
        with pytest.raises(ConfigurationError):
            build_schedule(100, beta_min=0.0, beta_max=0.02)


class TestPerturb:
    def test_zero_noise_scales_data(self, schedule):
        x0 = np.array([1.0, 0.0])
        for t in (1, 500, 1000):
            out = perturb(x0, t, np.zeros(2), schedule)
            assert np.array_equal(out, schedule.alpha[t] * x0)

    def test_zero_data_scales_noise(self, schedule):
        eps = np.array([0.3, -1.2])
        out = perturb(np.zeros(2), 700, eps, schedule)
        assert np.array_equal(out, schedule.sigma[700] * eps)

    def test_monte_carlo_mean_and_variance(self, schedule):
        rng = np.random.default_rng(11)
        x0 = np.array([2.0, -1.0])
        t = 400
        n = 100_000
        eps = rng.standard_normal((n, 2))
        draws = perturb(np.broadcast_to(x0, (n, 2)), t, eps, schedule)
        se = schedule.sigma[t] / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - schedule.alpha[t] * x0) < 3 * se)
        var_se = schedule.sigma[t] ** 2 * np.sqrt(2.0 / n)
        assert np.all(np.abs(draws.var(axis=0) - schedule.sigma[t] ** 2) < 3 * var_se)

    def test_shape_mismatch_rejected(self, schedule):
        with pytest.raises(ValueError):
            perturb(np.zeros(2), 10, np.zeros(3), schedule)

    def test_step_out_of_range_rejected(self, schedule):
        with pytest.raises(ValueError):
            perturb(np.zeros(2), 0, np.zeros(2), schedule)


class TestLossWeight:
    def test_both_kinds_positive(self, schedule):
        for kind in ("constant-one", "sigma-squared"):
            w = loss_weight(schedule, kind)
            assert np.all(w[1:] > 0)

    def test_values(self, schedule):
        assert loss_weight(schedule, "constant-one")[700] == 1.0
        assert loss_weight(schedule, "sigma-squared")[700] == schedule.sigma[700] ** 2

    def test_unknown_kind_rejected(self, schedule):
        with pytest.raises(ConfigurationError):
            loss_weight(schedule, "linear")
