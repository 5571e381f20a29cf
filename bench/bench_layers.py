"""Layer benchmarks: the pieces the end-to-end workloads spend their time in.

Run from the root of the repository, on one BLAS thread:

    OPENBLAS_NUM_THREADS=1 python -m pytest bench/bench_layers.py --benchmark-json=BENCH_<n>.json

The file is not named test_*.py, so the test suite does not collect it, and
it gates nothing: it is a measurement. With --benchmark-disable each
benchmark runs once, which checks that the file still runs.

Shapes are those of the acceptance pipeline: the default net (embed 32,
hidden 256 x 256) on the 2-d mixture, T 100, SVDD with n 1000 trajectories
and M 10 candidates, a batch of 128 for training. Weights are freshly
initialized: the time of a pass does not depend on their values.

- forward: one layer's matmul, bias add and tanh, float32 and float64, on
  n = 1000 rows (a current-state pass) and n x M = 10,000 rows (a candidate
  pass), and whole predict_noise passes at those shapes;
- train: a float32 step at batch 128, split into the forward pass, backprop
  and Adam, and the whole loss_and_grad_arrays;
- svdd_step: one guided step at n 1000, M 10: the current-state pass, the
  candidate scoring in its two forms (a network pass over all n x M
  candidates, or one value-and-Jacobian pass at the step's mean plus the
  Z @ J product; the second is skipped where the library lacks it), the
  reward on n x M rows, and the candidate noise draws plus the selection;
- hull: one Michell cell, aggregate_total_resistance for one hull, and
  aggregate_resistances on the 120 hulls of a `hull dataset` batch;
- trees: predict_ensemble (200 trees, depth 4) on 10,000 rows and on the 320
  candidates of one hull_design SVDD step (32 trajectories x M 10), and
  fit_ensemble on 120 rows.
"""

from dataclasses import replace

import numpy as np
import pytest

from rddkit import denoiser, sampler
from rddkit.benchmark import SYNTHETIC_TARGET, sample_hull_params
from rddkit.config import NetSection
from rddkit.data import NormStats, denormalize
from rddkit.denoiser import (
    _backprop,
    _forward,
    adam_step,
    float32_params,
    init_opt_state,
    init_params,
    layer_views,
    loss_and_grad_arrays,
    predict_noise,
)
from rddkit.diffusion import forward_marginal, make_schedule, posterior_mean_x0, reverse_step
from rddkit.hull import (
    aggregate_resistances,
    aggregate_total_resistance,
    michell_wave_resistance,
    scale_params,
)
from rddkit.rewards import SyntheticTargetReward, evaluate
from rddkit.trees import fit_ensemble, predict_ensemble

N_TRAJ, M, T, BATCH = 1000, 10, 100, 128
HULL_N_TRAJ, HULL_ROWS = 32, 120   # the hull_design SVDD trajectories and hull batch
STEP_T = 50    # the guided step benchmarked: mid-chain
HULL = (0.25, 0.25, 0.12, 0.08, 0.5, 0.75)
LOA = 80.0


@pytest.fixture(scope="module")
def model():
    """Float64 params of the default net, carrying the mixture's scale of stats."""
    params = init_params(2, NetSection(), make_schedule(T, beta_end=0.1), 0)
    return replace(params, stats=NormStats(mean=np.zeros(2), std=np.full(2, 0.7)))


def _params(model, dtype):
    return model if dtype == "float64" else float32_params(model)


# ------------------------------------------------------------------ forward

@pytest.mark.parametrize("rows", [N_TRAJ, N_TRAJ * M])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("op", ["matmul", "bias", "tanh"])
@pytest.mark.parametrize("layer", [0, 1, 2])
def test_forward_layer(benchmark, model, layer, op, dtype, rows):
    if op == "tanh" and layer == 2:
        pytest.skip("the output layer has no tanh")
    params = _params(model, dtype)
    X = np.random.default_rng(1).standard_normal((rows, 2))
    acts = _forward(params, X, STEP_T)
    W, b = layer_views(params, params.theta)[layer]
    H_in = acts[layer]
    pre = H_in @ W + b
    out = np.empty_like(pre)
    run = {"matmul": lambda: np.matmul(H_in, W, out=out),
           "bias": lambda: np.add(pre, b, out=out),
           "tanh": lambda: np.tanh(pre, out=out)}[op]
    benchmark(run)


@pytest.mark.parametrize("rows", [N_TRAJ, N_TRAJ * M])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_forward_predict_noise(benchmark, model, dtype, rows):
    params = _params(model, dtype)
    X = np.random.default_rng(1).standard_normal((rows, 2))
    benchmark(predict_noise, params, X, STEP_T)


# -------------------------------------------------------------------- train

@pytest.fixture(scope="module")
def train_batch(model):
    """A float32 master, its Adam state, and one batch of (XT, ts, EPS)."""
    params = float32_params(denoiser.clone_params(model))
    rng = np.random.default_rng(2)
    X0 = rng.standard_normal((BATCH, 2))
    ts = rng.integers(1, T + 1, size=BATCH)
    EPS = rng.standard_normal((BATCH, 2))
    return params, init_opt_state(params, 1e-3), X0, ts, EPS


def test_train_forward(benchmark, train_batch):
    params, _, X0, ts, EPS = train_batch
    XT = forward_marginal(X0, ts, EPS, params.sched)
    benchmark(_forward, params, XT, ts)


def test_train_backprop(benchmark, train_batch):
    params, _, X0, ts, EPS = train_batch
    XT = forward_marginal(X0, ts, EPS, params.sched)
    acts = _forward(params, XT, ts)
    dOut = ((2.0 / BATCH) * (acts[-1] - EPS)).astype(np.float32)
    grad = np.empty_like(params.theta)
    # _backprop scales its dOut in place through the layers: give it a fresh copy
    benchmark(lambda: _backprop(params, acts, dOut.copy(), grad))


def test_train_loss_and_grad(benchmark, train_batch):
    params, _, X0, ts, EPS = train_batch
    grad = np.empty_like(params.theta)
    benchmark(loss_and_grad_arrays, params, X0, ts, EPS, np.ones(BATCH), out=grad)


def test_train_adam_step(benchmark, train_batch):
    params, opt, X0, ts, EPS = train_batch
    _, grad = loss_and_grad_arrays(params, X0, ts, EPS, np.ones(BATCH))
    # a copy of the master: the steps move it, and the other benchmarks share it
    params = denoiser.clone_params(params)
    benchmark(adam_step, params, opt, grad * 1e-3)


# ---------------------------------------------------------------- svdd step

@pytest.fixture(scope="module")
def svdd_state(model):
    """The n states at STEP_T, their noise prediction, the step's candidate
    noise and candidates, and the float32 scorer copy."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((N_TRAJ, 2))
    eps = predict_noise(model, X, STEP_T)
    Z = rng.standard_normal((N_TRAJ, M, 2))
    cands = reverse_step(X[:, None], STEP_T, eps[:, None], model.sched, Z)
    return X, eps, Z, cands, float32_params(model)


def test_svdd_current_state_pass(benchmark, model, svdd_state):
    X = svdd_state[0]
    benchmark(predict_noise, model, X, STEP_T)


def test_svdd_candidates_full_pass(benchmark, svdd_state):
    # the network on every candidate: n x M float32 rows
    *_, cands, scorer = svdd_state
    benchmark(predict_noise, scorer, cands.reshape(N_TRAJ * M, 2), STEP_T - 1)


def test_svdd_candidates_first_order(benchmark, svdd_state):
    # one value-and-Jacobian pass at the step's mean, n x (1 + d) rows, and the
    # float64 first-order candidate predictions eps0 + sigma_t Z @ J
    noise_and_jacobian = getattr(denoiser, "noise_and_jacobian", None)
    if noise_and_jacobian is None:
        pytest.skip("no value-and-Jacobian pass in this version")
    X, eps, Z, cands, scorer = svdd_state
    sched = scorer.sched
    mu = reverse_step(X, STEP_T, eps, sched, 0.0)

    def run():
        eps0, J = noise_and_jacobian(scorer, mu, STEP_T - 1)
        return eps0[:, None].astype(np.float64) + sched.sigmas[STEP_T] * (
            Z @ J.astype(np.float64))

    benchmark(run)


def test_svdd_reward(benchmark, model, svdd_state):
    # x0_hat and the reward on the n x M candidates, as the chain scores them
    *_, cands, scorer = svdd_state
    flat = cands.reshape(N_TRAJ * M, 2)
    eps_hat = predict_noise(scorer, flat, STEP_T - 1).astype(np.float64)
    reward = SyntheticTargetReward(SYNTHETIC_TARGET)

    def run():
        x0_hat = posterior_mean_x0(flat, STEP_T - 1, eps_hat, model.sched)
        return evaluate(reward, denormalize(x0_hat, model.stats))

    benchmark(run)


def test_svdd_rng_and_select(benchmark):
    # the per-trajectory candidate noise of one step, then one selection
    rngs = sampler._spawn_generators(4, N_TRAJ)
    Z = np.empty((N_TRAJ, M, 2))
    vals = np.random.default_rng(5).standard_normal((N_TRAJ, M))
    u = np.random.default_rng(6).random(N_TRAJ)

    def run():
        for rng, block in zip(rngs, Z):
            rng.standard_normal(out=block)
        return sampler._select(vals, 0.2, u)

    benchmark(run)


# --------------------------------------------------------------------- hull

def test_hull_michell_cell(benchmark):
    dims = scale_params(np.array(HULL), LOA)
    benchmark(michell_wave_resistance, dims, 0.3 * np.sqrt(9.81 * LOA), 0.5)


def test_hull_aggregate_resistance(benchmark):
    dims = scale_params(np.array(HULL), LOA)
    benchmark(aggregate_total_resistance, dims)


def test_hull_aggregate_resistances(benchmark):
    benchmark(aggregate_resistances, sample_hull_params(HULL_ROWS, 10), LOA)


# -------------------------------------------------------------------- trees

@pytest.fixture(scope="module")
def hull_rows():
    X = sample_hull_params(HULL_ROWS, 7)
    y = np.random.default_rng(8).standard_normal(HULL_ROWS)
    return X, y


def test_trees_fit(benchmark, hull_rows):
    X, y = hull_rows
    benchmark(fit_ensemble, X, y, n_trees=200, max_depth=4)


def test_trees_predict(benchmark, hull_rows):
    X, y = hull_rows
    ensemble, _ = fit_ensemble(X, y, n_trees=200, max_depth=4)
    rows = sample_hull_params(10_000, 9)
    benchmark(predict_ensemble, ensemble, rows)


def test_trees_predict_svdd_step(benchmark, hull_rows):
    X, y = hull_rows
    ensemble, _ = fit_ensemble(X, y, n_trees=200, max_depth=4)
    rows = sample_hull_params(HULL_N_TRAJ * M, 9)
    benchmark(predict_ensemble, ensemble, rows)
