import numpy as np
import pytest

from rddkit.diffusion import (
    make_schedule,
    forward_marginal,
    reverse_step,
    posterior_mean_x0,
)
from rddkit.exceptions import ConfigError, NumericalError


def test_schedule_shapes_and_conventions():
    sched = make_schedule(100)
    assert sched.T == 100
    for arr in (sched.betas, sched.alphas, sched.alpha_bars, sched.sigmas):
        assert arr.shape == (101,)
    assert sched.betas[0] == 0.0
    assert sched.alphas[0] == 1.0
    assert sched.alpha_bars[0] == 1.0
    assert sched.sigmas[0] == 0.0
    # first reverse step is deterministic
    assert sched.sigmas[1] == 0.0
    assert sched.betas[1] == pytest.approx(1e-4)
    assert sched.betas[100] == pytest.approx(0.02)


def test_alpha_bar_is_product_of_alphas():
    sched = make_schedule(73, beta_start=3e-4, beta_end=0.05)
    # independent oracle: cumulative product in log space
    log_abar = np.cumsum(np.log(sched.alphas[1:]))
    assert np.allclose(sched.alpha_bars[1:], np.exp(log_abar), rtol=1e-12)
    assert np.all(np.diff(sched.alpha_bars) < 0)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        make_schedule(0)
    # T is bounded by config.MAX_T, 10,000
    assert make_schedule(10_000).T == 10_000
    with pytest.raises(ConfigError, match=r"schedule\.T: must lie in \[1, 10000\]"):
        make_schedule(10_001)
    with pytest.raises(ConfigError):
        make_schedule(10, beta_start=0.0)
    with pytest.raises(ConfigError):
        make_schedule(10, beta_end=1.0)
    with pytest.raises(ConfigError):
        make_schedule(10, beta_start=0.05, beta_end=0.01)


def test_single_step_schedule():
    sched = make_schedule(1, beta_start=0.01, beta_end=0.02)
    assert sched.betas[1] == pytest.approx(0.01)
    assert sched.sigmas[1] == 0.0


def test_forward_marginal_matches_direct_formula():
    sched = make_schedule(30)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((6, 3))
    eps = rng.standard_normal((6, 3))
    for t in (1, 15, 30):
        xt = forward_marginal(x0, t, eps, sched)
        abar = sched.alpha_bars[t]
        expect = np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps
        assert np.array_equal(xt, expect)


def test_index_zero_convention_gives_identity_marginal():
    # abar_0 = 1 makes the closed-form marginal collapse to x0; queries at
    # t = 0 themselves are rejected (timesteps run 1..T)
    sched = make_schedule(10)
    x0 = np.array([[1.0, -2.0]])
    eps = np.ones_like(x0)
    abar0 = sched.alpha_bars[0]
    assert np.array_equal(np.sqrt(abar0) * x0 + np.sqrt(1.0 - abar0) * eps, x0)
    with pytest.raises(IndexError):
        forward_marginal(x0, 0, eps, sched)


def test_forward_marginal_per_row_timesteps():
    sched = make_schedule(20)
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((5, 2))
    eps = rng.standard_normal((5, 2))
    ts = np.array([1, 5, 10, 15, 20])
    xt = forward_marginal(x0, ts, eps, sched)
    for i, t in enumerate(ts):
        assert np.array_equal(xt[i], forward_marginal(x0[i], int(t), eps[i], sched))


def test_forward_marginal_rejects_bad_t():
    sched = make_schedule(10)
    x0 = np.zeros((1, 2))
    with pytest.raises(IndexError):
        forward_marginal(x0, 11, x0, sched)
    with pytest.raises(IndexError):
        forward_marginal(x0, -1, x0, sched)


def test_reverse_step_formula():
    sched = make_schedule(25)
    rng = np.random.default_rng(2)
    xt = rng.standard_normal((4, 2))
    eps_pred = rng.standard_normal((4, 2))
    z = rng.standard_normal((4, 2))
    t = 12
    got = reverse_step(xt, t, eps_pred, sched, z)
    b, a, abar = sched.betas[t], sched.alphas[t], sched.alpha_bars[t]
    mean = (xt - b / np.sqrt(1.0 - abar) * eps_pred) / np.sqrt(a)
    expect = mean + np.sqrt(b) * z
    assert np.allclose(got, expect, rtol=0, atol=1e-15)


def test_reverse_step_final_is_deterministic():
    sched = make_schedule(25)
    rng = np.random.default_rng(3)
    xt = rng.standard_normal((4, 2))
    eps_pred = rng.standard_normal((4, 2))
    z = rng.standard_normal((4, 2))
    a = reverse_step(xt, 1, eps_pred, sched, z)
    b = reverse_step(xt, 1, eps_pred, sched, None)
    assert np.array_equal(a, b)


def test_perfect_noise_prediction_recovers_x0():
    # with eps_pred equal to the true noise, the posterior mean is exact
    sched = make_schedule(40)
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((8, 3))
    eps = rng.standard_normal((8, 3))
    for t in (1, 20, 40):
        xt = forward_marginal(x0, t, eps, sched)
        rec = posterior_mean_x0(xt, t, eps, sched)
        assert np.allclose(rec, x0, atol=1e-10)


def test_posterior_mean_rejects_vanishing_alpha_bar():
    sched = make_schedule(100, beta_start=0.5, beta_end=0.999)
    assert sched.alpha_bars[-1] < 1e-12
    with pytest.raises(NumericalError):
        posterior_mean_x0(np.zeros((1, 2)), 100, np.zeros((1, 2)), sched)


def test_reverse_chain_contracts_pure_noise():
    # with eps_pred = 0 the chain is a linear recursion; its stationary
    # variance has a closed form that 2000 samples should approach
    sched = make_schedule(50)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((2000, 2))
    var = np.ones(2)
    for t in range(50, 0, -1):
        z = rng.standard_normal((2000, 2)) if t > 1 else None
        X = reverse_step(X, t, np.zeros_like(X), sched, z)
        var = var / sched.alphas[t] + (sched.sigmas[t] ** 2 if t > 1 else 0.0)
    assert np.allclose(X.var(axis=0), var, rtol=0.15)
