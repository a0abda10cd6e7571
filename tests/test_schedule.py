import numpy as np
import pytest

from recdistill.errors import ConfigurationError
from recdistill.schedule import DiffusionSchedule, build_schedule, loss_weight


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


class TestFirstNoisyStep:
    def test_noiseless_first_step_rejected(self):
        with pytest.raises(ConfigurationError, match=r"sigma\[1\] = 0.0: the first noisy step adds no noise"):
            DiffusionSchedule(num_steps=2, alpha=np.array([1.0, 1.0, 0.0]), sigma=np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("beta_min, rejected", [(1e-17, True), (5.5e-17, True), (5.6e-17, False), (1e-16, False)])
    def test_beta_min_that_rounds_one_minus_beta_to_one_rejected(self, beta_min, rejected):
        """1 - beta_min rounds to 1 below 2**-54 (about 5.55e-17); above,
        sigma[1] is at least sqrt(2**-53), about 1.05e-8."""
        if rejected:
            with pytest.raises(ConfigurationError, match="the first noisy step adds no noise"):
                build_schedule(10, beta_min, 0.9)
        else:
            assert build_schedule(10, beta_min, 0.9).sigma[1] >= 1.05e-8


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
