import numpy as np
import pytest

from rddkit.config import FinetuneSection, NetSection
from rddkit.data import Dataset, normalize
from rddkit.denoiser import (
    clone_params,
    init_opt_state,
    init_params,
    predict_noise,
)
from rddkit.diffusion import make_schedule
from rddkit.exceptions import ConfigError
from rddkit.finetune import (
    _normalized_weights,
    finetune,
    rollin_collect,
    weighted_epoch,
)
from rddkit.pretrain import ancestral_sample, ddpm_epoch, train_ddpm
from rddkit.rewards import SyntheticTargetReward

SMALL = NetSection(embed_dim=8, hidden_dims=[32])


@pytest.fixture(scope="module")
def toy_model():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.standard_normal((150, 2)) * 0.3 - 1,
                        rng.standard_normal((150, 2)) * 0.3 + 1])
    norm, stats = normalize(Dataset(X=X))
    sched = make_schedule(15)
    params, _ = train_ddpm(norm, sched, SMALL, epochs=20, batch_size=32, seed=1)
    return params, sched, stats


def test_config_validation(toy_model):
    params, sched, stats = toy_model
    reward = SyntheticTargetReward(np.array([1.5, 0.0]))
    for bad, key in ((FinetuneSection(m=1), r"finetune\.m"),
                     (FinetuneSection(alpha=0.0), r"finetune\.alpha"),
                     (FinetuneSection(gamma=-1.0), r"finetune\.gamma")):
        with pytest.raises(ConfigError, match=key):
            finetune(params, reward, bad, sched, stats=stats)
    # explicit identity run is allowed
    assert finetune(params, reward, FinetuneSection(S=0), sched, stats=stats)[1] == []


def test_weight_normalization_hand_example():
    # two trajectories, rewards {alpha, 0}: exp gives {e, 1}, mean-1
    # normalization gives {2e/(1+e), 2/(1+e)}
    w = _normalized_weights(np.array([0.7, 0.0]), 0.7)
    e = np.e
    assert np.allclose(w, [2 * e / (1 + e), 2 / (1 + e)], atol=1e-12)
    assert w[0] == pytest.approx(1.46211715726, abs=1e-9)
    assert w[1] == pytest.approx(0.53788284274, abs=1e-9)
    assert np.isclose(w.mean(), 1.0)


def test_equal_rewards_give_exactly_unit_weights():
    w = _normalized_weights(np.full(9, -3.7), 0.5)
    assert np.all(w == 1.0)


def test_huge_alpha_weights_go_to_one():
    r = np.random.default_rng(1).uniform(-100, 100, size=50)
    w = _normalized_weights(r, 1e9)
    assert np.max(np.abs(w - 1.0)) < 1e-6


def test_clamp_saturation_warns():
    with pytest.warns(UserWarning):
        _normalized_weights(np.array([1e5, 2e5]), 1.0)


def test_uniform_weight_epoch_bit_identical_to_pretraining_epoch(toy_model):
    params, sched, stats = toy_model
    X = np.random.default_rng(5).standard_normal((64, 2))

    p1 = clone_params(params)
    o1 = init_opt_state(p1, learning_rate=1e-3)
    rng1 = np.random.default_rng(np.random.SeedSequence(77))
    loss1 = ddpm_epoch(p1, o1, X, sched, rng1, 16)

    p2 = clone_params(params)
    o2 = init_opt_state(p2, learning_rate=1e-3)
    rng2 = np.random.default_rng(np.random.SeedSequence(77))
    mean_r, loss2 = weighted_epoch(X, np.full(64, 4.2), 0.9, p2, o2, sched,
                                   rng=rng2, batch_size=16)

    assert loss1 == loss2
    assert mean_r == 4.2
    assert not np.array_equal(p1.theta, params.theta)
    for a, b in zip(p1.layer_weights, p2.layer_weights):
        assert np.array_equal(a, b)
    for a, b in zip(p1.layer_biases, p2.layer_biases):
        assert np.array_equal(a, b)
    assert np.array_equal(o1.m, o2.m) and np.array_equal(o1.v, o2.v)


def test_rollin_identical_policies_match_ancestral(toy_model):
    params, sched, _ = toy_model
    X0 = rollin_collect(params, params, sched, m=6, seed=21)
    X_anc = ancestral_sample(params, sched, 6, seed=21)
    assert X0.shape == (6, 2)
    assert np.array_equal(X0, X_anc)


def test_rollin_pure_pretrained_switch(toy_model):
    # switch at T routes every step through the pretrained params, so the
    # current params must not matter at all
    params, sched, _ = toy_model
    other = init_params(2, SMALL, 999)
    a = rollin_collect(other, params, sched, m=5, seed=8, switch_t=sched.T)
    b = ancestral_sample(params, sched, 5, seed=8)
    assert np.array_equal(a, b)


def test_rollin_determinism(toy_model):
    params, sched, _ = toy_model
    other = init_params(2, SMALL, 1000)
    a = rollin_collect(other, params, sched, m=2, seed=3, switch_t=7)
    b = rollin_collect(other, params, sched, m=2, seed=3, switch_t=7)
    assert np.array_equal(a, b)


def test_finetune_s0_identity(toy_model):
    params, sched, stats = toy_model
    reward = SyntheticTargetReward(np.array([1.5, 0.0]))
    cfg = FinetuneSection(S=0, m=4, seed=0)
    out, history = finetune(params, reward, cfg, sched, stats=stats)
    assert history == []
    for a, b in zip(out.layer_weights, params.layer_weights):
        assert np.array_equal(a, b)


def test_finetune_constant_reward_history_is_flat(toy_model):
    params, sched, stats = toy_model

    class Constant:
        def batch(self, X):
            return np.full(X.shape[0], -2.0)

    cfg = FinetuneSection(S=4, m=8, alpha=0.5, batch_size=8, seed=2, kl_anchor=False)
    _, history = finetune(params, Constant(), cfg, sched, stats=stats)
    assert [h["mean_reward"] for h in history] == [-2.0] * 4


def test_finetune_improves_mean_reward(toy_model):
    params, sched, stats = toy_model
    reward = SyntheticTargetReward(np.array([1.5, 0.0]))
    cfg = FinetuneSection(S=10, m=64, alpha=0.5, gamma=1e-3, batch_size=16, seed=6)
    tuned, history = finetune(params, reward, cfg, sched, stats=stats)
    assert history[-1]["mean_reward"] > history[0]["mean_reward"]
    assert len(history) == 10


def test_anchor_bounds_drift(toy_model):
    # stronger anchor keeps the noise predictions closer to the pretrained net
    params, sched, stats = toy_model
    reward = SyntheticTargetReward(np.array([1.5, 0.0]))
    probe = np.random.default_rng(3).standard_normal((100, 2))

    def drift(kappa, flag):
        cfg = FinetuneSection(S=8, m=32, alpha=0.5, gamma=2e-3, batch_size=16,
                             seed=4, kl_anchor=flag, anchor_kappa=kappa)
        tuned, _ = finetune(params, reward, cfg, sched, stats=stats)
        d = 0.0
        for t in (3, 8, 13):
            d += np.mean(np.abs(predict_noise(tuned, probe, t, sched.T)
                                - predict_noise(params, probe, t, sched.T)))
        return d

    assert drift(1.0, True) < drift(0.0, False)
