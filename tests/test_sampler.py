import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sstats

from rddkit import denoiser, sampler
from rddkit.config import NetSection, PretrainSection, SvddSection
from rddkit.data import Dataset, NormStats, denormalize, normalize
from rddkit.denoiser import float32_params, init_params, predict_noise, save_model
from rddkit.diffusion import make_schedule, posterior_mean_x0, reverse_step
from rddkit.exceptions import ConfigError
from rddkit.pretrain import ancestral_sample, train_ddpm
from rddkit.rewards import SyntheticTargetReward
from rddkit.sampler import (
    _candidate_values,
    _select,
    _spawn_generators,
    svdd_generate,
)

SMALL = NetSection(embed_dim=8, hidden_dims=[32])


def svdd_step(xt, t, params, cfg, rng, u, reward):
    """One guided reverse step for a single trajectory: the reference that
    the batched engine in svdd_generate is checked against.

    rng draws the candidate noise; u is the step's selection uniform.
    Returns (selected x_{t-1}, 1-based chosen index, candidate values); at
    t = 1 the step is deterministic and returns (x_0, 1, None).
    """
    X = np.asarray(xt, dtype=np.float64)[None, :]
    sched = params.sched
    eps = predict_noise(params, X, t)
    if t == 1:
        return reverse_step(X, t, eps, sched, None)[0], 1, None
    M = cfg.M
    Z = rng.standard_normal((M, X.shape[1]))
    cands = np.stack([reverse_step(X, t, eps, sched, Z[m][None, :]) for m in range(M)], axis=1)
    vals = _candidate_values(float32_params(params), reward, cands, t - 1)
    sel = int(_select(vals, cfg.alpha, np.array([u]))[0]) if M > 1 else 0
    return cands[0, sel], sel + 1, vals[0]


@pytest.fixture(scope="module")
def toy_model():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.standard_normal((150, 2)) * 0.3 - 1,
                        rng.standard_normal((150, 2)) * 0.3 + 1])
    norm, stats = normalize(Dataset(X=X))
    sched = make_schedule(15)
    params, _ = train_ddpm(norm, sched, SMALL, PretrainSection(epochs=20, batch_size=32, seed=1))
    return replace(params, stats=stats), sched, stats


REWARD = SyntheticTargetReward(np.array([1.5, 0.0]))


class StepSpy:
    """Spies on the chain's guided steps through sampler._candidate_values and
    sampler._select. chosen() and values() stack what they returned per
    trajectory: the (n, T-1) 0-based chosen indices and the (n, T-1, M) soft
    values of the steps t >= 2, or None when no step scored or chose."""

    def __init__(self, monkeypatch):
        self.scored, self.picks = [], []

        def values_spy(*args):
            self.scored.append(_candidate_values(*args))
            return self.scored[-1]

        def select_spy(*args):
            self.picks.append(_select(*args))
            return self.picks[-1]

        monkeypatch.setattr(sampler, "_candidate_values", values_spy)
        monkeypatch.setattr(sampler, "_select", select_spy)

    def chosen(self):
        return np.stack(self.picks, axis=1) if self.picks else None

    def values(self):
        return np.stack(self.scored, axis=1) if self.scored else None


def test_config_validation(toy_model):
    params, sched, stats = toy_model
    for bad, key in ((SvddSection(M=0), r"svdd\.M"), (SvddSection(n_traj=0), r"svdd\.n_traj"),
                     (SvddSection(alpha=-0.5), r"svdd\.alpha"),
                     (SvddSection(alpha=float("nan")), r"svdd\.alpha: must be finite")):
        with pytest.raises(ConfigError, match=key):
            svdd_generate(params, bad, REWARD)


def test_m1_bit_identical_to_ancestral(toy_model, monkeypatch):
    # both return the chain's final states denormalized by the model's stats;
    # M = 1 never scores a candidate and never selects
    params, sched, stats = toy_model
    cfg = SvddSection(M=1, n_traj=9, seed=5)
    spy = StepSpy(monkeypatch)
    designs, rewards = svdd_generate(params, cfg, REWARD)
    X_anc = ancestral_sample(params, 9, seed=5)
    assert np.array_equal(designs, X_anc)
    assert np.array_equal(designs, denormalize(sampler._reverse_chain(params, 9, 5), stats))
    assert np.array_equal(rewards, REWARD.batch(X_anc))
    assert spy.chosen() is None and spy.values() is None


def test_selection_frequencies_match_softmax_exactly():
    # zeta inverts the weight CDF, so a uniform grid of u recovers the
    # categorical probabilities up to grid resolution
    values = np.array([[0.3, -0.1, 0.8, 0.2]])
    alpha = 0.7
    n = 200_000
    counts = np.zeros(4)
    us = (np.arange(n) + 0.5) / n
    for u in us.reshape(100, -1):
        vals = np.repeat(values, u.size, axis=0)
        zeta = _select(vals, alpha, u)
        counts += np.bincount(zeta, minlength=4)
    w = np.exp(values[0] / alpha)
    p = w / w.sum()
    assert np.all(np.abs(counts / n - p) < 2e-5)


def test_selection_greedy_mode(toy_model):
    values = np.array([[0.3, -0.1, 0.8, 0.2]])
    for alpha in (0.0, 1e-12):
        for u in (0.01, 0.5, 0.99):
            zeta = _select(values, alpha, np.array([u]))
            assert zeta[0] == 2


def test_selection_uniform_fallback_on_non_finite():
    # a row with any non-finite value is drawn uniformly, finite or not its
    # other entries; the finite row is untouched, and so is the caller's array
    values = np.array([[np.nan, np.inf, -np.inf], [5.0, np.nan, 9.0], [0.0, 50.0, 0.0]])
    before = values.copy()
    with pytest.warns(UserWarning, match="^2 candidate row"):
        zeta = _select(values, 1.0, np.array([0.5, 0.5, 0.5]))
    assert list(zeta) == [1, 1, 1]  # middle of three with u = 0.5
    with pytest.warns(UserWarning):
        assert list(_select(values, 1.0, np.array([0.2, 0.9, 0.2]))) == [0, 2, 1]
    np.testing.assert_array_equal(values, before)


def test_svdd_step_equal_values_selects_uniformly(toy_model):
    params, sched, stats = toy_model

    class Constant:
        def batch(self, X):
            return np.full(X.shape[0], 2.5)

    cfg = SvddSection(M=4, alpha=1.0, n_traj=1, seed=0)
    rng = np.random.default_rng(123)
    x = np.array([0.2, -0.4])
    counts = np.zeros(4)
    n = 10_000
    for _ in range(n):
        _, zeta, vals = svdd_step(x, 7, params, cfg, rng, rng.random(), Constant())
        assert np.all(vals == 2.5)
        counts[zeta - 1] += 1
    chi2 = np.sum((counts - n / 4) ** 2 / (n / 4))
    assert chi2 < sstats.chi2.ppf(0.99, df=3)


def test_svdd_step_zeta_in_range_and_alpha_zero_greedy(toy_model):
    params, sched, stats = toy_model
    cfg = SvddSection(M=5, alpha=0.0, n_traj=1, seed=0)
    rng = np.random.default_rng(7)
    x = np.array([0.0, 0.0])
    for t in (15, 8, 2):
        x_next, zeta, vals = svdd_step(x, t, params, cfg, rng, rng.random(), REWARD)
        assert 1 <= zeta <= 5
        assert zeta - 1 == int(np.argmax(vals))
        assert x_next.shape == (2,)
    # the deterministic last step chooses nothing
    x_next, zeta, vals = svdd_step(x, 1, params, cfg, rng, rng.random(), REWARD)
    assert zeta == 1 and vals is None and x_next.shape == (2,)


@pytest.mark.parametrize("M", [1, 3])
def test_batched_chain_equals_per_trajectory_steps(toy_model, M, monkeypatch):
    # the lockstep engine consumes the same spawned streams as a
    # one-trajectory-at-a-time run of svdd_step: x_T, then for M > 1 the
    # selection uniforms of all T steps (that of t = 1 unread), then each
    # step's candidate noise; only the steps t >= 2 report a choice.
    # Identical selections, floats equal up to matmul accumulation order
    # across batch shapes; M = 1 pins the plain ancestral stream order.
    params, sched, stats = toy_model
    cfg = SvddSection(M=M, alpha=0.5, n_traj=6, seed=42)
    spy = StepSpy(monkeypatch)
    X0 = sampler._reverse_chain(params, 6, 42, M=M, reward=REWARD, alpha=0.5)
    if M == 1:    # never selects: every step keeps its one candidate
        assert spy.chosen() is None
    Z = spy.chosen() + 1 if M > 1 else np.ones((6, sched.T - 1), dtype=int)

    rngs = _spawn_generators(42, 6)
    for i, rng in enumerate(rngs):
        x = rng.standard_normal(2)
        us = rng.random(sched.T) if M > 1 else np.full(sched.T, np.nan)
        zetas = []
        for k, t in enumerate(range(sched.T, 0, -1)):
            x, zeta, _ = svdd_step(x, t, params, cfg, rng, us[k], REWARD)
            zetas.append(zeta)
        assert zetas[-1] == 1
        assert np.array_equal(Z[i], np.array(zetas[:-1]))
        np.testing.assert_allclose(X0[i], x, rtol=1e-10, atol=1e-12)


def test_noise_block_size_and_batch_size_change_nothing(toy_model, monkeypatch):
    # K, the number of steps drawn per RNG call, follows NOISE_BLOCK_BYTES;
    # a stream of normals gives the same values however it is split
    params, sched, stats = toy_model

    def chain(n, M, budget):
        """(final states, chosen indices, soft values); both None for M = 1."""
        monkeypatch.setattr(sampler, "NOISE_BLOCK_BYTES", budget)
        spy = StepSpy(monkeypatch)
        X = sampler._reverse_chain(params, n, 17, M=M, reward=REWARD, alpha=0.5)
        return X, spy.chosen(), spy.values()

    for M in (1, 3):
        step = 8 * 6 * M * 2
        one = chain(6, M, step)
        whole = chain(6, M, step * sched.T)
        for a, b in zip(one, whole):
            assert np.array_equal(a, b)
        # 2 steps per block for 6 trajectories, 4 for 3; the draws are
        # identical, the floats up to matmul accumulation order across
        # batch shapes, in float32 for the soft values
        (X6, z6, v6), (X3, z3, v3) = chain(6, M, 2 * step), chain(3, M, 2 * step)
        for a, b in zip((X6, z6, v6), one):
            assert np.array_equal(a, b)
        np.testing.assert_allclose(X6[:3], X3, rtol=1e-10, atol=1e-12)
        if M == 1:
            assert z6 is None and z3 is None and v6 is None and v3 is None
        else:
            assert np.array_equal(z6[:3], z3)
            np.testing.assert_allclose(v6[:3], v3, rtol=1e-5)
        # 2 float64 or 4 float32 rows per predict_noise block: every network
        # pass is split, which moves floats by accumulation order only
        with monkeypatch.context() as m:
            m.setattr(denoiser, "_PREDICT_BLOCK_BYTES", 2 * 8 * sum(SMALL.hidden_dims))
            Xb, zb, vb = chain(6, M, step)
        assert np.array_equal(zb, z6)
        np.testing.assert_allclose(Xb, X6, rtol=1e-10, atol=1e-12)
        if M > 1:
            np.testing.assert_allclose(vb, v6, rtol=1e-5)


def test_guidance_beats_unguided_on_average(toy_model):
    params, sched, stats = toy_model
    r1 = svdd_generate(params, SvddSection(M=1, n_traj=200, seed=9), REWARD)[1]
    r5 = svdd_generate(params, SvddSection(M=5, alpha=0.2, n_traj=200, seed=9), REWARD)[1]
    assert np.mean(r5) > np.mean(r1)


def test_soft_value_estimate_is_pure(toy_model):
    params, sched, stats = toy_model
    params = float32_params(params)
    cands = np.array([0.3, 0.7])[None, None, :]
    v1 = _candidate_values(params, REWARD, cands, 5)[0, 0]
    v2 = _candidate_values(params, REWARD, cands, 5)[0, 0]
    assert v1 == v2


def test_candidate_values_match_the_float64_soft_value(toy_model, monkeypatch):
    # the oracle is the soft value from a float64 pass; the candidate pass
    # runs on float32 params and may differ from it by rounding only
    dtypes = []

    def spy(params, *args):
        dtypes.append(params.theta.dtype)
        return predict_noise(params, *args)

    monkeypatch.setattr(sampler, "predict_noise", spy)
    toy_params, sched, toy_stats = toy_model
    wide_stats = NormStats(mean=np.linspace(-1.0, 1.0, 6), std=np.linspace(0.5, 2.0, 6))
    wide = replace(init_params(6, NetSection(embed_dim=8, hidden_dims=[64, 64]), sched, 3),
                   stats=wide_stats)
    wide_reward = SyntheticTargetReward(np.full(6, 4.0))
    rng = np.random.default_rng(11)
    for params, stats, reward in ((toy_params, toy_stats, REWARD),
                                  (wide, wide_stats, wide_reward)):
        cands = rng.standard_normal((5, 4, params.d))
        flat = cands.reshape(20, params.d)
        for t in (1, 7, sched.T - 1):
            vals = _candidate_values(float32_params(params), reward, cands, t)
            x0_hat = posterior_mean_x0(flat, t, predict_noise(params, flat, t), sched)
            oracle = reward.batch(denormalize(x0_hat, stats)).reshape(5, 4)
            assert vals.dtype == np.float64
            np.testing.assert_allclose(vals, oracle, rtol=1e-5)
    assert dtypes == [np.float32] * 6


def test_guided_chain_casts_each_policy_once(toy_model, monkeypatch):
    # the candidate passes of a whole chain share one float32 copy per policy
    params, sched, stats = toy_model
    other = replace(init_params(2, SMALL, sched, 7), stats=stats)
    casts, thetas = [], []

    def cast_spy(p):
        casts.append(p.theta)
        return float32_params(p)

    def predict_spy(p, *args):
        thetas.append(p.theta)
        return predict_noise(p, *args)

    monkeypatch.setattr(sampler, "float32_params", cast_spy)
    monkeypatch.setattr(sampler, "predict_noise", predict_spy)
    sampler._reverse_chain(params, 6, 4, M=3, reward=REWARD, params_pre=other, switch_t=5)
    # casting float32 params copies nothing; only the two float64 policies copy
    copied = [c for c in casts if c.dtype != np.float32]
    assert len(copied) == 2 and copied[0] is params.theta and copied[1] is other.theta
    candidate = [th for th in thetas if th.dtype == np.float32]
    assert len(candidate) == sched.T - 1      # one candidate pass per step t >= 2
    assert len({id(th) for th in candidate}) == 2


def test_unguided_chains_cast_nothing(toy_model, monkeypatch):
    # M = 1 has no candidate pass, so a float64 model is never copied to float32
    params, sched, stats = toy_model
    casts = []

    def cast_spy(p):
        casts.append(p.theta.dtype)
        return float32_params(p)

    monkeypatch.setattr(sampler, "float32_params", cast_spy)
    assert params.theta.dtype == np.float64
    ancestral_sample(params, 4, seed=2)
    svdd_generate(params, SvddSection(M=1, n_traj=4, seed=2), REWARD)
    assert casts == []


class CountingReward:
    """REWARD, recording the row count of every batch call."""

    def __init__(self):
        self.rows = []

    def batch(self, X):
        self.rows.append(X.shape[0])
        return REWARD.batch(X)


@pytest.mark.parametrize("M", [1, 3])
def test_the_chain_scores_only_where_candidates_differ(toy_model, M, monkeypatch):
    # a guided run scores n x M candidates at each step t >= 2 and the n final
    # designs once; the deterministic last step scores nothing, and each step
    # t >= 2 chooses one of its M candidates per trajectory
    params, sched, stats = toy_model
    n, T = 5, sched.T
    reward = CountingReward()
    spy = StepSpy(monkeypatch)
    svdd_generate(params, SvddSection(M=M, alpha=0.5, n_traj=n), reward)
    if M > 1:
        assert reward.rows == [n * M] * (T - 1) + [n]   # n*M*(T-1) + n rows in T calls
        assert spy.values().shape == (n, T - 1, M)
        assert spy.chosen().shape == (n, T - 1)
        assert np.all((spy.chosen() >= 0) & (spy.chosen() < M))
    else:
        assert reward.rows == [n]
        assert spy.values() is None and spy.chosen() is None


class ColumnReward:
    """Returns its rewards as an (n, 1) column instead of (n,)."""

    def batch(self, X):
        return REWARD.batch(X)[:, None]


@pytest.mark.parametrize("M", [1, 3])
def test_a_reward_column_is_rejected_by_name(toy_model, M):
    # M = 3 fails at the first candidate scoring, M = 1 at the final designs
    params, sched, stats = toy_model
    cfg = SvddSection(M=M, alpha=0.5, n_traj=4, seed=0)
    n = 4 * M
    with pytest.raises(ValueError, match=rf"ColumnReward\.batch returned shape \({n}, 1\) "
                                         rf"for {n} designs; expected \({n},\)"):
        svdd_generate(params, cfg, ColumnReward())


def test_guided_samples_are_thread_count_invariant_at_the_candidate_shape(tmp_path):
    # hidden 256 and 10 x 200 = 2000 candidate rows per step: the shape of a
    # guided run. predict_noise runs that float32 candidate pass as several
    # row blocks, each large enough to be split across BLAS threads; the
    # block size does not depend on the thread count
    model = tmp_path / "model.rddm"
    params = init_params(2, NetSection(embed_dim=32, hidden_dims=[256, 256]),
                         make_schedule(5, 1e-4, 0.1), 0)
    save_model(str(model), params)
    src = os.path.dirname(os.path.dirname(sampler.__file__))

    def samples(threads):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        outdir = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "rddkit.cli", "sample", "--model", str(model),
             "--outdir", str(outdir), "--M", "10", "--n-traj", "200", "--alpha", "0.2",
             "--seed", "4"], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return (outdir / "samples.csv").read_bytes()

    assert samples(1) == samples(2)


def test_soft_value_equals_reward_for_perfect_prediction():
    # alpha_bar = 1 at t = 0 and an exact noise oracle recover x0
    sched = make_schedule(10)
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal(2)
    eps = rng.standard_normal(2)
    t = 4
    from rddkit.diffusion import forward_marginal
    xt = forward_marginal(x0, t, eps, sched)
    rec = posterior_mean_x0(xt, t, eps, sched)
    stats = NormStats(mean=np.zeros(2), std=np.ones(2))
    assert np.allclose(rec, x0, atol=1e-12)
    assert abs(REWARD.batch(rec[None, :])[0] - REWARD.batch(x0[None, :])[0]) < 1e-10
