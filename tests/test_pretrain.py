import numpy as np
import pytest

from rddkit.config import NetSection, PretrainSection
from rddkit.data import Dataset, normalize
from rddkit.denoiser import init_opt_state, init_params, predict_noise
from rddkit.diffusion import make_schedule
from rddkit.exceptions import ConfigError
from rddkit.pretrain import ancestral_sample, ddpm_epoch, train_ddpm

SMALL = NetSection(embed_dim=8, hidden_dims=[32])


@pytest.mark.parametrize("field, value", [("epochs", -3), ("batch_size", 0),
                                          ("learning_rate", float("nan")), ("seed", -1)])
def test_pretrain_section_is_checked_before_training(field, value):
    ds = Dataset(X=np.random.default_rng(0).standard_normal((20, 2)))
    bad = PretrainSection(**{"epochs": 2, "batch_size": 8, field: value})
    with pytest.raises(ConfigError, match=rf"pretrain\.{field}"):
        train_ddpm(ds, make_schedule(10), SMALL, bad)


def test_zero_epochs_returns_initialized_params():
    ds = Dataset(X=np.random.default_rng(0).standard_normal((20, 2)))
    sched = make_schedule(10)
    params, history = train_ddpm(ds, sched, SMALL, PretrainSection(epochs=0, batch_size=8, seed=4))
    reference = init_params(2, SMALL, sched, np.random.default_rng(np.random.SeedSequence(4)))
    assert history == []
    assert params.sched is sched
    # the float64 init itself, not its float32 rounding
    assert params.theta.dtype == np.float64
    assert not np.array_equal(reference.theta, reference.theta.astype(np.float32))
    for a, b in zip(params.layer_weights, reference.layer_weights):
        assert np.array_equal(a, b)


def test_training_is_deterministic_per_seed():
    ds = Dataset(X=np.random.default_rng(1).standard_normal((64, 2)))
    sched = make_schedule(10)
    p1, h1 = train_ddpm(ds, sched, SMALL, PretrainSection(epochs=3, batch_size=16, seed=7))
    p2, h2 = train_ddpm(ds, sched, SMALL, PretrainSection(epochs=3, batch_size=16, seed=7))
    assert h1 == h2
    for a, b in zip(p1.layer_weights, p2.layer_weights):
        assert np.array_equal(a, b)


def test_training_runs_on_a_float32_master(training_steps):
    ds = Dataset(X=np.random.default_rng(1).standard_normal((64, 2)))
    params, _ = train_ddpm(ds, make_schedule(10), SMALL,
                           PretrainSection(epochs=2, batch_size=16, seed=7))
    assert len(training_steps.loss) == len(training_steps.adam) == 2 * 4
    assert all(anchor is None for _, anchor in training_steps.loss)
    training_steps.assert_float32_master(params)


def test_fixed_batch_overfit():
    # a capacity net memorizes eight fixed denoising targets to near zero
    from rddkit.denoiser import adam_step, loss_and_grad_arrays

    sched = make_schedule(5)
    rng = np.random.default_rng(np.random.SeedSequence(3))
    params = init_params(2, NetSection(embed_dim=16, hidden_dims=[64, 64]), sched, rng)
    opt = init_opt_state(params, learning_rate=3e-3)
    rows = [(rng.standard_normal(2), int(rng.integers(1, 6)), rng.standard_normal(2))
            for _ in range(8)]
    X0, ts, EPS = (np.array(col) for col in zip(*rows))
    w = np.ones(8)
    first = loss_and_grad_arrays(params, X0, ts, EPS, w)[0]
    loss = first
    for step in range(2000):
        loss, grad = loss_and_grad_arrays(params, X0, ts, EPS, w)
        adam_step(params, opt, grad)
    assert first > 0.5
    assert loss < 1e-8


def test_training_reduces_loss_on_mixture():
    rng = np.random.default_rng(5)
    X = np.concatenate([rng.standard_normal((100, 2)) * 0.2 - 1,
                        rng.standard_normal((100, 2)) * 0.2 + 1])
    norm, _ = normalize(Dataset(X=X))
    sched = make_schedule(20)
    params, history = train_ddpm(norm, sched, SMALL, PretrainSection(epochs=30, batch_size=32))
    assert history[-1] < history[0]


def test_ancestral_sample_empty_and_deterministic():
    params = init_params(2, SMALL, make_schedule(10), 0)
    assert ancestral_sample(params, 0, seed=1).shape == (0, 2)
    a = ancestral_sample(params, 7, seed=1)
    b = ancestral_sample(params, 7, seed=1)
    c = ancestral_sample(params, 7, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_prefix_stability_across_sample_counts():
    # per-trajectory streams: the first k samples do not depend on n
    params = init_params(2, SMALL, make_schedule(10), 0)
    a = ancestral_sample(params, 4, seed=3)
    b = ancestral_sample(params, 9, seed=3)
    assert np.array_equal(a, b[:4])


def test_untrained_zero_net_variance_matches_closed_form():
    # with eps_theta = 0 the chain is linear; propagate the variance exactly
    cfg = NetSection(embed_dim=8, hidden_dims=[16])
    sched = make_schedule(30)
    params = init_params(2, cfg, sched, 0)
    params.theta[:] = 0.0   # every weight and bias
    X = ancestral_sample(params, 4000, seed=11)
    var = np.ones(2)
    for t in range(30, 1, -1):
        var = var / sched.alphas[t] + sched.sigmas[t] ** 2
    var = var / sched.alphas[1]
    assert np.allclose(X.mean(axis=0), 0.0, atol=4 * np.sqrt(var.max() / 4000))
    assert np.all(np.abs(X.var(axis=0) - var) / var < 0.10)


def test_divergence_aborts_with_checkpoint():
    # a non-finite input poisons the loss; training stops and hands back the
    # last finite parameter state
    X = np.random.default_rng(8).standard_normal((32, 2))
    X[:, 0] = np.nan
    sched = make_schedule(10)
    from rddkit.exceptions import NumericalError, TrainingDivergenceError
    with pytest.raises(TrainingDivergenceError) as exc_info:
        train_ddpm(Dataset(X=X), sched, SMALL, PretrainSection(epochs=2, batch_size=16))
    assert exc_info.value.checkpoint is not None
    assert isinstance(exc_info.value, NumericalError)
    # the float32 master, widened to float64
    assert exc_info.value.checkpoint.theta.dtype == np.float64
    for wl in exc_info.value.checkpoint.layer_weights:
        assert np.all(np.isfinite(wl))
