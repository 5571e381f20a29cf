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


@pytest.mark.parametrize("dim, T", [(32, 100), (8, 15), (32, 1000), (2, 10), (6, 7)])
def test_time_embedding_table_rows_equal_the_direct_formula(dim, T):
    half = dim // 2
    freqs = np.ones(1) if half == 1 else float(max(T, 2)) ** (-np.arange(half) / (half - 1))

    def direct(t):
        args = np.multiply.outer(np.asarray(t, dtype=np.float64), freqs)
        emb = np.empty(args.shape[:-1] + (dim,))
        emb[..., 0::2] = np.sin(args)
        emb[..., 1::2] = np.cos(args)
        return emb

    ts = np.random.default_rng(dim + T).integers(0, T + 1, size=50)
    assert np.array_equal(time_embedding(ts, dim, T), direct(ts))
    for t in (0, 1, T // 2, T):
        assert np.array_equal(time_embedding(t, dim, T), direct(t))


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


def test_float32_gradient_agrees_with_float64():
    # training backpropagates on a float32 theta. Over 30 seeds of
    # this setup the relative error (2-norm) of the float32 gradient was at
    # most 2.4e-7, with or without the anchor term, and 1.7e-5 for the anchor
    # term alone, whose 1 % drift loses digits to cancellation; each bound is
    # about ten times the worst case
    sched = make_schedule(100, beta_end=0.1)
    params = init_params(2, NetSection(), 0)
    rng = np.random.default_rng(1000)
    anchor = replace(params, theta=params.theta * (1 + 0.01 * rng.standard_normal(
        params.theta.size)))
    batch = make_batch(0, 64, 2, 100)
    w = rng.uniform(0.1, 3.0, 64)

    def f32(p):
        return replace(p, theta=p.theta.astype(np.float32))

    for weights, kappa, bound in ((w, 0.0, 2e-6), (w, 0.5, 2e-6), (np.zeros(64), 0.5, 2e-4)):
        l64, g64 = loss_and_grad_arrays(params, *batch, sched, weights,
                                        anchor_params=anchor, kappa=kappa)
        l32, g32 = loss_and_grad_arrays(f32(params), *batch, sched, weights,
                                        anchor_params=f32(anchor), kappa=kappa)
        assert g64.dtype == np.float64 and g32.dtype == np.float32
        assert np.linalg.norm(g32 - g64) / np.linalg.norm(g64) < bound
        assert abs(l32 - l64) / l64 < bound


def test_gradient_written_into_out():
    params = small_net(seed=2)
    sched = make_schedule(10)
    batch = make_batch(3, 5, 2, 10)
    fresh = loss_and_grad_arrays(params, *batch, sched, np.ones(5))[1]
    buf = np.full_like(params.theta, np.nan)
    loss, grad = loss_and_grad_arrays(params, *batch, sched, np.ones(5), out=buf)
    assert grad is buf
    assert np.array_equal(buf, fresh)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_step_matches_reference_update(dtype):
    # the update runs in the dtype of theta, which the moments share
    params = small_net(seed=5)
    params = replace(params, theta=params.theta.astype(dtype))
    opt = init_opt_state(params, learning_rate=1e-2)
    assert opt.m.dtype == opt.v.dtype == opt.scratch.dtype == dtype
    sched = make_schedule(10)
    batch = make_batch(6, 4, 2, 10)
    _, grad = loss_and_grad_arrays(params, *batch, sched, np.ones(4))
    assert grad.dtype == dtype
    before = params.theta.copy()
    theta = params.theta
    adam_step(params, opt, grad)
    m = 0.1 * grad
    v = 0.001 * grad * grad
    step = 1e-2 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    assert params.theta.dtype == opt.m.dtype == opt.v.dtype == dtype
    assert np.allclose(params.theta, before - step, rtol=1e-5 if dtype == np.float32 else 1e-8)
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
    opt = init_opt_state(params, 1e-3)
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


def test_float32_divergence_checkpoint_is_widened_to_float64():
    params = small_net(seed=8)
    params = replace(params, theta=params.theta.astype(np.float32))
    opt = init_opt_state(params, 1e-3)
    grad = np.full_like(params.theta, np.inf)
    with pytest.raises(TrainingDivergenceError) as err:
        adam_step(params, opt, grad)
    checkpoint = err.value.checkpoint.theta
    assert checkpoint.dtype == np.float64
    assert np.array_equal(checkpoint, params.theta.astype(np.float64))
    assert not np.shares_memory(checkpoint, params.theta)


def test_model_file_round_trip(tmp_path):
    params = small_net(seed=11, d=3, hidden=(8, 8), embed=6)
    stats = NormStats(mean=np.array([1.0, 2.0, 3.0]), std=np.array([0.5, 1.5, 2.5]))
    path = os.path.join(tmp_path, "m.rddm")
    save_model(path, params, make_schedule(42, 2e-4, 0.07), stats=stats)
    loaded, sched, lstats = load_model(path)
    ref = make_schedule(42, 2e-4, 0.07)
    assert sched.T == 42 and (sched.betas[1], sched.betas[-1]) == (2e-4, 0.07)
    for name in ("betas", "alphas", "alpha_bars", "sigmas"):
        assert np.array_equal(getattr(sched, name), getattr(ref, name))
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
    save_model(path, params, make_schedule(10, 1e-4, 0.02))
    _, _, lstats = load_model(path)
    assert lstats is None


def test_model_file_rejects_garbage(tmp_path):
    path = os.path.join(tmp_path, "bad.rddm")
    with open(path, "wb") as f:
        f.write(b"NOTAMODEL" + b"\x00" * 64)
    with pytest.raises(DataError):
        load_model(path)
