import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdistill.errors import NumericError
from recdistill.estimator import (
    IntervalEma,
    alpha_from_n_ema,
    ema_lookup,
    ema_update,
    tweedie_x0,
)
from recdistill.oracle import mc_posterior_mean
from recdistill.schedule import build_schedule
from recdistill.worldmodel import PoseLabeledMixture

from conftest import eps_pretrain, mean_noisy_posterior


class TestTweedie:
    def test_dirac_recovers_mean(self, schedule):
        m = PoseLabeledMixture(
            weights=np.array([1.0]), means=np.array([[2.0]]), covs=np.array([[[1e-12]]]),
            category_of=np.array([0]), num_categories=1,
        )
        for xt in (-1.0, 0.3, 4.0):
            t = 400
            eps = eps_pretrain(m, schedule, t, np.array([xt]))
            assert tweedie_x0(schedule, t, np.array([xt]), eps) == pytest.approx(2.0, rel=1e-6)

    def test_zero_eps(self, schedule):
        xt = np.array([1.4])
        assert tweedie_x0(schedule, 250, xt, np.zeros(1)) == pytest.approx(xt / schedule.alpha[250])

    def test_matches_mc_posterior_mean(self, biased_1d, schedule):
        t, xt = 600, np.array([0.5])
        eps = eps_pretrain(biased_1d, schedule, t, xt)
        got = tweedie_x0(schedule, t, xt, eps)
        est = mc_posterior_mean(biased_1d, schedule, t, xt, 100_000, seed=17)
        assert abs(got[0] - est.mean[0]) / abs(est.mean[0]) < 1e-2

    def test_rejects_t0_and_nonfinite(self, schedule):
        with pytest.raises(ValueError):
            tweedie_x0(schedule, 0, np.zeros(1), np.zeros(1))
        with pytest.raises(NumericError):
            tweedie_x0(schedule, 10, np.array([np.inf]), np.zeros(1))

    def test_non_finite_names_the_row(self, schedule):
        eps = np.zeros((16, 2))
        eps[5, 1] = np.nan
        t = np.arange(1, 17) * 10
        with pytest.raises(NumericError, match=r"^non-finite clean estimate at row 5: t=60, xt=\[5\. 5\.\]$"):
            tweedie_x0(schedule, t, np.full((16, 2), 5.0), eps)

    def test_alpha_underflow_names_the_row(self):
        schedule = build_schedule(1000, beta_max=0.9999999)
        t = np.full(16, 500)
        t[[3, 9]] = 950, 990
        assert schedule.alpha[500] > 1e-300 > schedule.alpha[950]
        xt = np.arange(32.0).reshape(16, 2)
        with pytest.raises(NumericError, match=r"^alpha underflow at row 3: t=950, xt=\[6\. 7\.\]$"):
            tweedie_x0(schedule, t, xt, np.zeros((16, 2)))
        with pytest.raises(NumericError, match=r"^alpha underflow at t=990, xt=\[0\. 1\.\]$"):
            tweedie_x0(schedule, 990, xt[0], np.zeros(2))


class TestAlphaFromNEma:
    def test_single_update(self):
        assert alpha_from_n_ema(1) == pytest.approx(0.9, abs=1e-15)

    def test_hundred_updates(self):
        assert alpha_from_n_ema(100) == pytest.approx(0.022763, abs=1e-6)
        # closed form to near machine precision
        assert alpha_from_n_ema(100) == pytest.approx(1.0 - 0.1 ** 0.01, abs=1e-12)

    def test_minimality(self):
        for n in (1, 10, 100, 1000):
            a = alpha_from_n_ema(n)
            assert 1.0 - (1.0 - a) ** n >= 0.9 - 1e-12
            assert 1.0 - (1.0 - a * (1.0 - 1e-9)) ** n < 0.9

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            alpha_from_n_ema(0)


class TestIntervalEma:
    def test_fresh_state_uniform(self):
        state = IntervalEma.create(1000, 10, 4)
        assert np.array_equal(ema_lookup(state, 1), np.full(4, 0.25))

    def test_interval_indexing(self):
        state = IntervalEma.create(1000, 10, 2)
        assert state.interval_of(1) == 0
        assert state.interval_of(99) == 0
        assert state.interval_of(100) == 1
        assert state.interval_of(1000) == 9  # clamped into the last interval

    def test_full_replacement_at_alpha_one(self):
        state = IntervalEma(num_steps=1000, n_t=10, values=np.full((10, 2), 0.5), alpha_ema=1.0)
        ema_update(state, 250, np.array([0.9, 0.1]))
        assert np.array_equal(state.values[2], [0.9, 0.1])

    def test_fixed_point(self):
        state = IntervalEma.create(1000, 10, 2)
        before = state.snapshot()
        ema_update(state, 42, np.array([0.5, 0.5]))
        assert np.array_equal(state.values, before)

    def test_interval_isolation(self):
        state = IntervalEma.create(1000, 10, 2)
        before = state.snapshot()
        ema_update(state, 550, np.array([0.9, 0.1]))
        changed = np.any(state.values != before, axis=1)
        assert changed[5] and changed.sum() == 1

    def test_convergence_to_stationary_mean(self):
        # i.i.d. simplex observations with known mean; after 10 * n_ema
        # updates the state should sit within 0.02 TV of that mean
        n_ema = 100
        q = np.array([0.7, 0.3])
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            state = IntervalEma.create(1000, 10, 2, n_ema=n_ema)
            for _ in range(10 * n_ema):
                obs = np.clip(q + rng.normal(0, 0.05), 1e-6, None)
                ema_update(state, 450, obs / obs.sum())
            tv = 0.5 * np.sum(np.abs(ema_lookup(state, 450) - q))
            hits += tv < 0.02
        assert hits >= 9

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3), min_size=1, max_size=20),
           st.integers(1, 1000))
    def test_simplex_closure(self, raw_rows, t):
        state = IntervalEma.create(1000, 10, 3)
        for row in raw_rows:
            obs = np.array(row) / np.sum(row)
            ema_update(state, t, obs)
        sums = state.values.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-9) and np.all(state.values >= 0)

    def test_rejects_bad_updates(self):
        state = IntervalEma.create(1000, 10, 2)
        with pytest.raises(ValueError):
            ema_update(state, 0, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            ema_update(state, 10, np.array([0.7, 0.7]))

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            IntervalEma.create(1000, 7, 2)


class TestAdjacentIntervalSmoothness:
    def test_neighbouring_steps_have_close_marginals(self, biased_1d, schedule):
        # the exact category marginal changes by < 0.01 TV between
        # neighbouring steps, justifying one EMA vector per interval
        for t in (100, 500, 900):
            a = mean_noisy_posterior(biased_1d, schedule, t, 50_000, seed=8)
            b = mean_noisy_posterior(biased_1d, schedule, t + 1, 50_000, seed=8)
            assert 0.5 * np.sum(np.abs(a - b)) < 0.01
