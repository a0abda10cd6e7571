"""The benchmark's reference mixture against hand-computed values.

A 1D mixture 0.75 N(1, 1) + 0.25 N(-1, 1) keeps unit component variance
under the VP schedule (alpha^2 + sigma^2 = 1), so every quantity has a
short closed form.  Run with `python3 -m pytest perfbench/test_reference.py`.
"""

import math

import numpy as np
import pytest

import reference as ref

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@pytest.fixture
def mix(tmp_path):
    cfg = tmp_path / "two.cfg"
    cfg.write_text("[mixture]\nnum_categories = 2\ncomponents =\n"
                   "    0.75 |  1.0 | 1.0 | 0\n    0.25 | -1.0 | 1.0 | 1\n"
                   "[schedule]\nnum_steps = 2\n")
    return ref.Mixture.from_config(cfg)


def test_schedule_by_hand(mix):
    # betas are linspace(1e-4, 0.02, 2) = (1e-4, 0.02)
    assert mix.alpha[0] == 1.0 and mix.sigma[0] == 0.0
    assert mix.alpha[1] == pytest.approx(math.sqrt(0.9999), abs=1e-15)
    assert mix.alpha[2] == pytest.approx(math.sqrt(0.9999 * 0.98), abs=1e-15)
    assert np.allclose(mix.alpha**2 + mix.sigma**2, 1.0, rtol=0, atol=1e-15)


def test_log_density_by_hand(mix):
    # at x = 0 both components sit one unit away: log p = -1/2 - log sqrt(2 pi)
    assert mix.log_density(0, [0.0]) == pytest.approx(-0.5 - HALF_LOG_2PI, abs=1e-14)
    a = mix.alpha[2]
    assert mix.log_density(2, [0.0]) == pytest.approx(-0.5 * a * a - HALF_LOG_2PI, abs=1e-14)


def test_posterior_by_hand(mix):
    assert np.allclose(mix.posterior(0, [0.0]), [0.75, 0.25], rtol=0, atol=1e-15)
    p0 = 0.75 / (0.75 + 0.25 * math.exp(-2.0))
    assert np.allclose(mix.posterior(0, [1.0]), [p0, 1.0 - p0], rtol=0, atol=1e-15)
    assert mix.category_marginal().tolist() == [0.75, 0.25]


def test_gradients_by_hand(mix):
    # d/dx log p(0) = 0.75 * (1 - 0) + 0.25 * (-1 - 0) = 0.5
    grad = ref.central_difference(lambda v: mix.log_density(0, v), np.array([0.0]), 1e-6)
    assert grad[0] == pytest.approx(0.5, abs=1e-8)
    # uniform-target weights (2/3, 2) make r(0) = 2/3 * 0.75 + 2 * 0.25 = 1
    assert mix.log_r(0, [0.0], [2.0 / 3.0, 2.0]) == pytest.approx(0.0, abs=1e-15)
    # d/dx log p(1 | x) = (score of N(-1, 1)) - (score of the mixture) = -1 - 0.5 at x = 0
    grad = ref.central_difference(lambda v: mix.log_posterior(0, v)[1], np.array([0.0]), 1e-6)
    assert grad[0] == pytest.approx(-1.5, abs=1e-8)


def test_helpers():
    quad = ref.central_difference(lambda v: v[0] ** 2 + 3.0 * v[1], np.array([2.0, 5.0]), 1e-3)
    assert np.allclose(quad, [4.0, 3.0], rtol=0, atol=1e-9)
    assert ref.categorical_entropy([[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(math.log(2.0), abs=1e-15)
    assert np.allclose(ref.rotation(math.pi / 2) @ [1.0, 0.0], [0.0, 1.0], rtol=0, atol=1e-15)
