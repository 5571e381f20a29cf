import os
from dataclasses import replace

import numpy as np
import pytest

from rddkit.config import NetSection
from rddkit.data import NormStats
from rddkit.denoiser import (
    _forward,
    adam_step,
    clone_params,
    init_opt_state,
    init_params,
    layer_views,
    load_model,
    loss_and_grad_arrays,
    predict_noise,
    save_model,
    time_embedding,
)
from rddkit.diffusion import make_schedule
from rddkit.exceptions import ConfigError, DataError, TrainingDivergenceError


def small_net(seed=0, d=2, hidden=(4,), embed=4):
    cfg = NetSection(embed_dim=embed, hidden_dims=list(hidden))
    return init_params(d, cfg, seed)


def make_batch(seed, n, d, T):
    """(X0, ts, EPS) arrays; each row draws x0, t, eps in that order."""
    rng = np.random.default_rng(seed)
    rows = [(rng.standard_normal(d), int(rng.integers(1, T + 1)), rng.standard_normal(d))
            for _ in range(n)]
    return tuple(np.array(col) for col in zip(*rows))


def test_time_embedding_basic_properties():
    emb = time_embedding(np.array([0, 1, 50, 100]), 16, 100)
    assert emb.shape == (4, 16)
    # interleaved sin/cos pairs satisfy sin^2 + cos^2 = 1
    assert np.allclose(emb[:, 0::2] ** 2 + emb[:, 1::2] ** 2, 1.0)
    # distinct timesteps map to distinct embeddings
    assert not np.allclose(emb[1], emb[2])
    with pytest.raises(ConfigError):
        time_embedding(np.array([1]), 7, 100)


def test_predict_noise_shapes():
    params = small_net()
    x = np.zeros(2)
    single = predict_noise(params, x, 3, 10)
    assert single.shape == (2,)
    batch = predict_noise(params, np.zeros((5, 2)), 3, 10)
    assert batch.shape == (5, 2)
    assert np.allclose(batch[0], single)
    with pytest.raises(ConfigError):
        predict_noise(params, np.zeros((5, 3)), 3, 10)


def test_forward_matches_the_plain_layer_loop():
    # hidden layers of different widths share one block; each activation
    # must equal the allocate-per-operation reference bit for bit
    params = small_net(seed=3, d=3, hidden=(8, 5), embed=4)
    X = np.random.default_rng(1).standard_normal((7, 3))
    acts = _forward(params, X, np.arange(1, 8), 10)
    layers = layer_views(params, params.theta)
    H = acts[0]
    for i, (W, b) in enumerate(layers):
        H = H @ W + b
        if i < len(layers) - 1:
            H = np.tanh(H)
        assert np.array_equal(acts[i + 1], H)


def test_float32_params_give_a_float32_pass():
    # the sampler scores candidates on a float32 copy of theta; the float64
    # pass is the oracle, and float32 rounding is all that may separate them
    params = small_net(seed=4, d=6, hidden=(64, 64), embed=8)
    params32 = replace(params, theta=params.theta.astype(np.float32))
    X = np.random.default_rng(2).standard_normal((50, 6))
    assert all(a.dtype == np.float64 for a in _forward(params, X, 7, 20))
    assert all(a.dtype == np.float32 for a in _forward(params32, X, 7, 20))
    for t in (1, 7, 20):
        out64 = predict_noise(params, X, t, 20)
        out32 = predict_noise(params32, X, t, 20)
        assert out64.dtype == np.float64 and out32.dtype == np.float32
        assert np.max(np.abs(out32 - out64)) < 1e-5


def test_init_params_deterministic_per_seed():
    a, b = small_net(seed=9), small_net(seed=9)
    c = small_net(seed=10)
    assert all(np.array_equal(x, y) for x, y in zip(a.layer_weights, b.layer_weights))
    assert any(not np.array_equal(x, y) for x, y in zip(a.layer_weights, c.layer_weights))


def test_gradients_match_central_finite_differences():
    # every parameter entry, small net, double precision
    params = small_net(seed=1)
    sched = make_schedule(10)
    batch = make_batch(2, 8, 2, 10)
    weights = np.ones(8)
    _, grad = loss_and_grad_arrays(params, *batch, sched, weights)
    assert grad.shape == params.theta.shape
    grads = layer_views(params, grad)

    def loss_at(p):
        return loss_and_grad_arrays(p, *batch, sched, weights)[0]

    h = 1e-6
    for li in range(len(params.layer_weights)):
        for kind in (0, 1):
            arr, ganl = layer_views(params, params.theta)[li][kind], grads[li][kind]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                p_hi = clone_params(params)
                p_lo = clone_params(params)
                layer_views(p_hi, p_hi.theta)[li][kind][idx] += h
                layer_views(p_lo, p_lo.theta)[li][kind][idx] -= h
                fd = (loss_at(p_hi) - loss_at(p_lo)) / (2 * h)
                rel = abs(ganl[idx] - fd) / max(abs(fd), 1e-8)
                assert rel < 1e-4, f"layer {li} idx {idx}: {ganl[idx]} vs {fd}"


def test_anchor_gradient_matches_finite_differences():
    params = small_net(seed=3)
    anchor = small_net(seed=4)
    sched = make_schedule(10)
    batch = make_batch(5, 6, 2, 10)
    weights = np.ones(6)
    _, grad = loss_and_grad_arrays(params, *batch, sched, weights,
                                   anchor_params=anchor, kappa=0.1)
    gw = layer_views(params, grad)[0][0]

    def loss_at(p):
        return loss_and_grad_arrays(p, *batch, sched, weights,
                                    anchor_params=anchor, kappa=0.1)[0]

    h = 1e-6
    arr = params.layer_weights[0]
    rng = np.random.default_rng(0)
    for _ in range(10):
        i = tuple(rng.integers(0, s) for s in arr.shape)
        p_hi, p_lo = clone_params(params), clone_params(params)
        p_hi.layer_weights[0][i] += h
        p_lo.layer_weights[0][i] -= h
        fd = (loss_at(p_hi) - loss_at(p_lo)) / (2 * h)
        assert abs(gw[i] - fd) / max(abs(fd), 1e-8) < 1e-4


def test_gradient_written_into_out():
    params = small_net(seed=2)
    sched = make_schedule(10)
    batch = make_batch(3, 5, 2, 10)
    fresh = loss_and_grad_arrays(params, *batch, sched, np.ones(5))[1]
    buf = np.full_like(params.theta, np.nan)
    loss, grad = loss_and_grad_arrays(params, *batch, sched, np.ones(5), out=buf)
    assert grad is buf
    assert np.array_equal(buf, fresh)


def test_adam_step_matches_reference_update():
    params = small_net(seed=5)
    opt = init_opt_state(params, learning_rate=1e-2)
    sched = make_schedule(10)
    batch = make_batch(6, 4, 2, 10)
    _, grad = loss_and_grad_arrays(params, *batch, sched, np.ones(4))
    before = params.theta.copy()
    theta = params.theta
    adam_step(params, opt, grad)
    m = 0.1 * grad
    v = 0.001 * grad * grad
    step = 1e-2 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    assert np.allclose(params.theta, before - step)
    assert np.array_equal(opt.m, (1.0 - 0.9) * grad)
    assert np.array_equal(opt.v, (1.0 - 0.999) * grad * grad)
    assert opt.step_count == 1
    # params updated in place: the same vector, seen through the layer views
    assert params.theta is theta
    assert np.shares_memory(params.layer_weights[0], theta)
    assert not np.array_equal(params.theta, before)


def test_hundred_adam_steps_reduce_loss():
    params = small_net(seed=7, hidden=(16,), embed=8)
    opt = init_opt_state(params, learning_rate=1e-3)
    sched = make_schedule(10)
    batch = make_batch(8, 32, 2, 10)
    w = np.ones(32)
    first = loss_and_grad_arrays(params, *batch, sched, w)[0]
    for _ in range(100):
        loss, grad = loss_and_grad_arrays(params, *batch, sched, w)
        adam_step(params, opt, grad)
    assert loss_and_grad_arrays(params, *batch, sched, w)[0] < first


def test_adam_rejects_non_finite_gradients():
    params = small_net(seed=8)
    opt = init_opt_state(params)
    sched = make_schedule(10)
    batch = make_batch(9, 4, 2, 10)
    adam_step(params, opt, loss_and_grad_arrays(params, *batch, sched, np.ones(4))[1])
    _, grad = loss_and_grad_arrays(params, *batch, sched, np.ones(4))
    grad[-1] = np.nan
    theta, m, v = params.theta.copy(), opt.m.copy(), opt.v.copy()
    with pytest.raises(TrainingDivergenceError) as err:
        adam_step(params, opt, grad)
    assert np.array_equal(err.value.checkpoint.theta, theta)
    assert np.array_equal(params.theta, theta)
    assert np.array_equal(opt.m, m)
    assert np.array_equal(opt.v, v)
    assert opt.step_count == 1


def test_model_file_round_trip(tmp_path):
    params = small_net(seed=11, d=3, hidden=(8, 8), embed=6)
    stats = NormStats(mean=np.array([1.0, 2.0, 3.0]), std=np.array([0.5, 1.5, 2.5]))
    path = os.path.join(tmp_path, "m.rddm")
    save_model(path, params, T=42, beta_start=2e-4, beta_end=0.07, stats=stats)
    loaded, meta, lstats = load_model(path)
    assert meta == {"T": 42, "beta_start": 2e-4, "beta_end": 0.07}
    assert np.array_equal(lstats.mean, stats.mean)
    assert np.array_equal(lstats.std, stats.std)
    assert np.array_equal(params.theta, loaded.theta)
    assert (loaded.d, loaded.embed_dim, loaded.hidden_dims) == (3, 6, (8, 8))
    for a, b in zip(params.layer_weights, loaded.layer_weights):
        assert np.array_equal(a, b)
    for a, b in zip(params.layer_biases, loaded.layer_biases):
        assert np.array_equal(a, b)
    x = np.array([0.3, -0.1, 0.8])
    assert np.array_equal(predict_noise(params, x, 7, 42), predict_noise(loaded, x, 7, 42))


def test_model_file_without_stats(tmp_path):
    params = small_net(seed=12)
    path = os.path.join(tmp_path, "m.rddm")
    save_model(path, params, T=10, beta_start=1e-4, beta_end=0.02)
    _, _, lstats = load_model(path)
    assert lstats is None


def test_model_file_rejects_garbage(tmp_path):
    path = os.path.join(tmp_path, "bad.rddm")
    with open(path, "wb") as f:
        f.write(b"NOTAMODEL" + b"\x00" * 64)
    with pytest.raises(DataError):
        load_model(path)
