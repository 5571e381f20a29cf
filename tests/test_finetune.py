import importlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from rddkit import cli, sampler
from rddkit.config import FinetuneSection, NetSection, PretrainSection, SvddSection
from rddkit.data import Dataset, NormStats, denormalize, normalize
from rddkit.denoiser import (
    clone_params,
    float32_params,
    init_opt_state,
    init_params,
    layer_views,
    predict_noise,
)
from rddkit.diffusion import make_schedule
from rddkit.exceptions import ConfigError, NumericalError
from rddkit.finetune import (
    _normalized_weights,
    finetune,
    rollin_collect,
    weighted_epoch,
)
from rddkit.pretrain import ancestral_sample, ddpm_epoch, train_ddpm
from rddkit.rewards import SyntheticTargetReward
from rddkit.sampler import svdd_generate

SMALL = NetSection(embed_dim=8, hidden_dims=[32])


@pytest.fixture(scope="module")
def toy_model():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.standard_normal((150, 2)) * 0.3 - 1,
                        rng.standard_normal((150, 2)) * 0.3 + 1])
    norm, stats = normalize(Dataset(X=X))
    sched = make_schedule(15)
    params, _ = train_ddpm(norm, sched, SMALL, PretrainSection(epochs=20, batch_size=32, seed=1))
    return replace(params, stats=stats), sched, stats


def test_config_validation(toy_model):
    params, sched, stats = toy_model
    reward = SyntheticTargetReward(np.array([1.5, 0.0]))
    for bad, key in ((FinetuneSection(m=1), r"finetune\.m"),
                     (FinetuneSection(alpha=0.0), r"finetune\.alpha"),
                     (FinetuneSection(gamma=-1.0), r"finetune\.gamma")):
        with pytest.raises(ConfigError, match=key):
            finetune(params, reward, bad)
    # explicit identity run is allowed
    assert finetune(params, reward, FinetuneSection(S=0))[1] == []


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


def test_weights_do_not_depend_on_a_reward_offset():
    for r, alpha in ((np.array([-0.3, -0.2, -0.1]), 1.0),
                     (np.random.default_rng(2).uniform(-5.0, 0.0, size=40), 0.5)):
        w = _normalized_weights(r, alpha)
        assert np.ptp(w) > 0.1
        for shift in (50.0, -50.0):
            np.testing.assert_allclose(_normalized_weights(r + shift, alpha), w, rtol=1e-12)
    np.testing.assert_allclose(_normalized_weights(np.array([-0.3, -0.2, -0.1]), 1.0),
                               3 * np.exp([-0.2, -0.1, 0.0]) / np.exp([-0.2, -0.1, 0.0]).sum(),
                               rtol=1e-12)


def test_uniform_weight_epoch_bit_identical_to_pretraining_epoch(toy_model):
    params, sched, stats = toy_model
    X = np.random.default_rng(5).standard_normal((64, 2))

    p1 = clone_params(params)
    o1 = init_opt_state(p1, learning_rate=1e-3)
    rng1 = np.random.default_rng(np.random.SeedSequence(77))
    loss1 = ddpm_epoch(p1, o1, X, rng1, 16)

    p2 = clone_params(params)
    o2 = init_opt_state(p2, learning_rate=1e-3)
    rng2 = np.random.default_rng(np.random.SeedSequence(77))
    mean_r, loss2 = weighted_epoch(X, np.full(64, 4.2), p2, o2, rng2,
                                   FinetuneSection(alpha=0.9, batch_size=16))

    assert loss1 == loss2
    assert mean_r == 4.2
    assert not np.array_equal(p1.theta, params.theta)
    for (Wa, ba), (Wb, bb) in zip(layer_views(p1, p1.theta), layer_views(p2, p2.theta)):
        assert np.array_equal(Wa, Wb)
        assert np.array_equal(ba, bb)
    assert np.array_equal(o1.m, o2.m) and np.array_equal(o1.v, o2.v)


def test_rollin_identical_policies_match_ancestral(toy_model):
    # the roll-in's passes run on float32 copies, so its reference is
    # ancestral sampling on the float32-cast params
    params, sched, _ = toy_model
    X0 = rollin_collect(params, params, m=6, seed=21)
    X_anc = ancestral_sample(float32_params(params), 6, seed=21)
    assert X0.shape == (6, 2)
    assert np.array_equal(X0, X_anc)


def test_rollin_pure_pretrained_switch(toy_model):
    # switch at T routes every step through the pretrained params, so the
    # current params must not matter at all
    params, sched, _ = toy_model
    other = init_params(2, SMALL, sched, 999)
    a = rollin_collect(other, params, m=5, seed=8, switch_t=sched.T)
    b = ancestral_sample(float32_params(params), 5, seed=8)
    assert np.array_equal(a, b)


def test_rollin_matches_the_float64_chain(toy_model, monkeypatch):
    # the oracle is the float64 chain under the same mixed policy; the
    # roll-in's passes run on float32 params and its float64 designs may
    # differ from the oracle by rounding only (about 3e-8 measured; bound 1e-6)
    params, sched, _ = toy_model
    current = init_params(2, SMALL, sched, 1000)
    switch_t = sched.T // 2
    oracle, _, _ = sampler._reverse_chain(current, 64, 21,
                                          params_pre=params, switch_t=switch_t)
    thetas = []

    def spy(p, *args):
        thetas.append(p.theta)
        return predict_noise(p, *args)

    monkeypatch.setattr(sampler, "predict_noise", spy)
    X0 = rollin_collect(current, params, m=64, seed=21, switch_t=switch_t)
    assert X0.dtype == np.float64
    np.testing.assert_allclose(X0, oracle, rtol=0, atol=1e-6)
    # steps T..switch_t+1 on the current policy, switch_t..1 on the pretrained one
    expected = ([float32_params(current).theta] * (sched.T - switch_t)
                + [float32_params(params).theta] * switch_t)
    assert len(thetas) == sched.T
    for got, want in zip(thetas, expected):
        assert got.dtype == np.float32
        assert np.array_equal(got, want)


def test_rollin_determinism(toy_model):
    params, sched, _ = toy_model
    other = init_params(2, SMALL, sched, 1000)
    a = rollin_collect(other, params, m=2, seed=3, switch_t=7)
    b = rollin_collect(other, params, m=2, seed=3, switch_t=7)
    assert np.array_equal(a, b)


def test_finetune_s0_identity(toy_model):
    # fresh float64 draws, which float32 cannot hold exactly: S = 0 returns
    # them as they are, not rounded through the float32 master
    _, sched, stats = toy_model
    params = replace(init_params(2, SMALL, sched, 5), stats=stats)
    assert not np.array_equal(params.theta, params.theta.astype(np.float32))
    reward = SyntheticTargetReward(np.array([1.5, 0.0]))
    cfg = FinetuneSection(S=0, m=4, seed=0)
    out, history = finetune(params, reward, cfg)
    assert history == []
    assert out.theta.dtype == np.float64 and out.theta is not params.theta
    assert out.stats is stats and out.sched is sched
    for a, b in zip(out.layer_weights, params.layer_weights):
        assert np.array_equal(a, b)


def test_finetune_trains_a_float32_master(toy_model, training_steps, monkeypatch):
    # every step runs on one float32 master, against the float32 anchor; the
    # roll-in's current policy is that master itself, not a copy of it
    params, sched, stats = toy_model
    rollin_thetas = []

    def chain_spy(p, *args, **kwargs):
        rollin_thetas.append((p.theta, kwargs["params_pre"].theta))
        return sampler._reverse_chain(p, *args, **kwargs)

    # the package's finetune attribute is the function; the module is imported by name
    monkeypatch.setattr(importlib.import_module("rddkit.finetune"), "_reverse_chain", chain_spy)
    cfg = FinetuneSection(S=3, m=16, batch_size=8, seed=2, kl_anchor=True)
    reward = SyntheticTargetReward(np.array([1.5, 0.0]))
    tuned, _ = finetune(params, reward, cfg)
    assert len(training_steps.adam) == 3 * 2
    training_steps.assert_float32_master(tuned)
    master = training_steps.adam[-1][0].theta
    anchor = training_steps.loss[0][1].theta
    assert anchor.dtype == np.float32
    assert np.array_equal(anchor, params.theta.astype(np.float32))
    assert all(a.theta is anchor for _, a in training_steps.loss)
    assert len(rollin_thetas) == 3
    assert all(cur is master and pre is anchor for cur, pre in rollin_thetas)


def test_a_model_scores_rewards_on_its_own_stats(toy_model, monkeypatch):
    # guided sampling and fine-tuning both score reward.batch(denormalize(X0,
    # params.stats)) exactly; the stats here are far from the identity
    params, sched, _ = toy_model
    stats = NormStats(mean=np.array([3.0, -2.0]), std=np.array([0.5, 4.0]))
    model = replace(params, stats=stats)
    reward = SyntheticTargetReward(np.array([1.5, 0.0]))

    X0, rewards, _, _ = svdd_generate(model, SvddSection(M=3, n_traj=7, seed=4), reward)
    assert np.array_equal(rewards, reward.batch(denormalize(X0, stats)))

    designs = []

    def spy(*args, **kwargs):
        designs.append(rollin_collect(*args, **kwargs))
        return designs[-1]

    monkeypatch.setattr(importlib.import_module("rddkit.finetune"), "rollin_collect", spy)
    cfg = FinetuneSection(S=2, m=8, batch_size=8, seed=2)
    tuned, history = finetune(model, reward, cfg)
    assert tuned.stats is stats and tuned.sched is sched
    assert len(designs) == 2
    for h, X in zip(history, designs):
        assert h["mean_reward"] == float(reward.batch(denormalize(X, stats)).mean())


def test_finetune_constant_reward_history_is_flat(toy_model):
    params, sched, stats = toy_model

    class Constant:
        def batch(self, X):
            return np.full(X.shape[0], -2.0)

    cfg = FinetuneSection(S=4, m=8, alpha=0.5, batch_size=8, seed=2, kl_anchor=False)
    _, history = finetune(params, Constant(), cfg)
    assert [h["mean_reward"] for h in history] == [-2.0] * 4


def test_finetune_does_not_depend_on_a_reward_offset(toy_model):
    params, sched, stats = toy_model
    base = SyntheticTargetReward(np.array([1.5, 0.0]))

    class Offset:
        def batch(self, X):
            return base.batch(X) + 50.0

    cfg = FinetuneSection(S=3, m=32, alpha=0.5, gamma=1e-3, batch_size=16, seed=9)
    tuned, history = finetune(params, base, cfg)
    shifted, shifted_history = finetune(params, Offset(), cfg)
    assert not np.array_equal(tuned.theta, params.theta)
    np.testing.assert_allclose(shifted.theta, tuned.theta, rtol=1e-6)
    for h, g in zip(history, shifted_history):
        assert g["mean_reward"] - h["mean_reward"] == pytest.approx(50.0)


def test_non_finite_rewards_stop_finetuning(toy_model):
    params, sched, stats = toy_model

    class BreaksOnSecondCall:
        calls = 0

        def batch(self, X):
            self.calls += 1
            r = -np.sum(X * X, axis=1)
            if self.calls == 2:
                r[[0, 3]] = np.inf
                r[5] = np.nan
            return r

    cfg = FinetuneSection(S=3, m=8, alpha=0.5, batch_size=8, seed=2)
    with pytest.raises(NumericalError, match=r"iteration 2: 3 of 8 rewards are non-finite"):
        finetune(params, BreaksOnSecondCall(), cfg)


def test_a_reward_column_stops_finetuning_by_name(toy_model):
    params, sched, stats = toy_model

    class ColumnReward:
        def batch(self, X):
            return -np.sum(X * X, axis=1, keepdims=True)

    cfg = FinetuneSection(S=2, m=8, batch_size=8, seed=2)
    with pytest.raises(ValueError, match=r"ColumnReward\.batch returned shape \(8, 1\) "
                                         r"for 8 designs; expected \(8,\)"):
        finetune(params, ColumnReward(), cfg)


def test_finetune_improves_mean_reward(toy_model):
    params, sched, stats = toy_model
    reward = SyntheticTargetReward(np.array([1.5, 0.0]))
    cfg = FinetuneSection(S=10, m=64, alpha=0.5, gamma=1e-3, batch_size=16, seed=6)
    tuned, history = finetune(params, reward, cfg)
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
        tuned, _ = finetune(params, reward, cfg)
        d = 0.0
        for t in (3, 8, 13):
            d += np.mean(np.abs(predict_noise(tuned, probe, t)
                                - predict_noise(params, probe, t)))
        return d

    assert drift(1.0, True) < drift(0.0, False)


def test_trained_models_are_thread_count_invariant_at_the_training_shape(tmp_path):
    # hidden 256 x 256 at pretraining batch 128, and fine-tuning with the
    # anchor at batch 64 and the default 256-trajectory roll-in: the float32
    # training and roll-in matmuls are large enough to be split across BLAS
    # threads, and the model files must not depend on the split
    data = str(tmp_path / "data.csv")
    assert cli.main(["benchmark", "make", "--n", "512", "--seed", "3", "--out", data]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schedule": {"T": 20, "beta_end": 0.1},
        "net": {"embed_dim": 32, "hidden_dims": [256, 256]},
        "pretrain": {"batch_size": 128},
        "finetune": {"S": 2, "m": 256, "batch_size": 64, "kl_anchor": True},
    }))
    src = os.path.dirname(os.path.dirname(cli.__file__))

    def models(threads):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        outdir = tmp_path / f"threads{threads}"
        for argv in (["pretrain", "--data", data, "--epochs", "2", "--seed", "6"],
                     ["finetune", "--model", str(outdir / "model.rddm"), "--seed", "7"]):
            proc = subprocess.run(
                [sys.executable, "-m", "rddkit.cli"] + argv +
                ["--config", str(config), "--outdir", str(outdir)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        return [(outdir / name).read_bytes() for name in ("model.rddm", "model_ft.rddm")]

    assert models(1) == models(2)
