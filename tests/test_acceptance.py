"""Acceptance checklist: one test per release criterion.

Each test prints a single summary line with the measured quantities next to
their required bounds. The heavyweight artifacts (the benchmark dataset, the
pretrained and the fine-tuned model) are session fixtures shared across
criteria, with wall-clock budgets tracked in TIMINGS.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sstats

from rddkit import benchmark, sampler
from rddkit.config import FinetuneSection, NetSection, PretrainSection, SvddSection
from rddkit.data import Dataset, denormalize, normalize
from rddkit.denoiser import (
    clone_params,
    float32_params,
    init_opt_state,
    init_params,
    layer_views,
    loss_and_grad_arrays,
    predict_noise,
)
from rddkit.diffusion import forward_marginal, make_schedule, reverse_step
from rddkit.finetune import finetune, weighted_epoch
from rddkit.hull import (
    HullDims,
    aggregate_total_resistance,
    friction_coefficient,
    michell_wave_resistance,
    scale_params,
)
from rddkit.metrics import beyond_distribution, boxplot_stats, kde
from rddkit.pretrain import ancestral_sample, ddpm_epoch, train_ddpm
from rddkit.rewards import SyntheticTargetReward
from rddkit.sampler import _candidate_values, svdd_generate
from rddkit.trees import fit_ensemble, predict_ensemble, r2_score

TIMINGS = {}


@pytest.fixture(scope="session")
def bench_data():
    return benchmark.make_mixture_dataset(5000, seed=7)


@pytest.fixture(scope="session")
def pretrained(bench_data):
    norm, stats = normalize(bench_data)
    sched = make_schedule(100, beta_end=0.1)
    t0 = time.perf_counter()
    params, history = train_ddpm(norm, sched, NetSection(),
                                 PretrainSection(epochs=200, batch_size=128, seed=0))
    TIMINGS["pretrain"] = time.perf_counter() - t0
    return {"params": replace(params, stats=stats), "sched": sched, "stats": stats,
            "norm": norm, "history": history}


@pytest.fixture(scope="session")
def finetuned(pretrained):
    reward = SyntheticTargetReward(benchmark.SYNTHETIC_TARGET)
    cfg = FinetuneSection(S=50, m=256, alpha=1.0, gamma=1e-3, seed=5)
    t0 = time.perf_counter()
    params_ft, history = finetune(pretrained["params"], reward, cfg)
    TIMINGS["finetune"] = time.perf_counter() - t0
    return {"params": params_ft, "history": history, "reward": reward}


def test_criterion_01_forward_marginal_equivalence():
    t0 = time.perf_counter()
    sched = make_schedule(50)
    x0 = np.array([0.8, -1.2])
    n = 10_000
    rng = np.random.default_rng(314)
    X = np.tile(x0, (n, 1))
    for t in range(1, 51):
        X = (np.sqrt(sched.alphas[t]) * X
             + np.sqrt(sched.betas[t]) * rng.standard_normal((n, 2)))
    abar = sched.alpha_bars[50]
    target_mean = np.sqrt(abar) * x0
    target_var = (1.0 - abar) * np.ones(2)
    se_mean = np.sqrt(target_var / n)
    se_var = target_var * np.sqrt(2.0 / (n - 1))
    mean_err = np.abs(X.mean(axis=0) - target_mean)
    var_err = np.abs(X.var(axis=0) - target_var)
    wall = time.perf_counter() - t0
    print(f"criterion 01: mean err {mean_err.max():.2e} vs 3SE "
          f"{3 * se_mean.max():.2e}, var err {var_err.max():.2e} vs 3SE "
          f"{3 * se_var.max():.2e}, {wall:.1f}s (< 10)")
    assert np.all(mean_err < 3 * se_mean)
    assert np.all(var_err < 3 * se_var)
    assert wall < 10


def test_criterion_02_gradient_exactness():
    t0 = time.perf_counter()
    sched = make_schedule(6)
    cfg = NetSection(embed_dim=4, hidden_dims=[4])
    rng = np.random.default_rng(2)
    params = init_params(2, cfg, sched, rng)
    rows = [(rng.standard_normal(2), int(rng.integers(1, 7)),
             rng.standard_normal(2)) for _ in range(8)]
    X0, ts, EPS = (np.array(col) for col in zip(*rows))
    w = rng.uniform(0.5, 1.5, size=8)
    _, grad = loss_and_grad_arrays(params, X0, ts, EPS, w)
    dW = [gw for gw, _ in layer_views(params, grad)]
    db = [gb for _, gb in layer_views(params, grad)]

    def loss_at(p):
        return loss_and_grad_arrays(p, X0, ts, EPS, w)[0]

    h = 1e-6
    worst = 0.0
    for kind, grads in ((0, dW), (1, db)):
        for li, g in enumerate(grads):
            arr = layer_views(params, params.theta)[li][kind]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss_at(params)
                arr[idx] = orig - h
                dn = loss_at(params)
                arr[idx] = orig
                fd = (up - dn) / (2 * h)
                rel = abs(g[idx] - fd) / max(abs(fd), 1e-8)
                worst = max(worst, rel)
    wall = time.perf_counter() - t0
    print(f"criterion 02: worst relative gradient error {worst:.2e} "
          f"(< 1e-4), {wall:.1f}s (< 5)")
    assert worst < 1e-4
    assert wall < 5


def test_criterion_03_pretraining_fidelity(bench_data, pretrained):
    t0 = time.perf_counter()
    X = ancestral_sample(pretrained["params"], 5000, seed=123)
    wall = TIMINGS["pretrain"] + (time.perf_counter() - t0)
    mean_err = np.abs(X.mean(axis=0) - bench_data.X.mean(axis=0)).max()
    cov_err = np.linalg.norm(np.cov(X.T) - np.cov(bench_data.X.T), "fro")
    fractions = benchmark.nearest_mode_fractions(X)
    print(f"criterion 03: mean err {mean_err:.4f} (<= 0.05), cov err "
          f"{cov_err:.4f} (<= 0.1), mode occupancy {fractions.min():.2f} "
          f"(>= 0.25), {wall:.0f}s (< 300)")
    assert mean_err <= 0.05
    assert cov_err <= 0.1
    assert np.all(fractions >= 0.25)
    assert wall < 300


def test_criterion_04_m1_degeneracy(pretrained, monkeypatch):
    reward = SyntheticTargetReward(benchmark.SYNTHETIC_TARGET)
    plain = ancestral_sample(pretrained["params"], 64, seed=77)
    cfg = SvddSection(M=1, alpha=0.2, n_traj=64, seed=77)
    selections, select = [], sampler._select

    def select_spy(*args):
        selections.append(args)
        return select(*args)

    with monkeypatch.context() as m:
        m.setattr(sampler, "_select", select_spy)
        guided, _ = svdd_generate(pretrained["params"], cfg, reward)
    identical = np.array_equal(plain, guided)
    print(f"criterion 04: M=1 bit-identical to ancestral: {identical}")
    assert identical
    assert selections == []     # every step keeps its one candidate


def test_criterion_05_guidance_monotonicity(pretrained):
    t0 = time.perf_counter()
    reward = SyntheticTargetReward(benchmark.SYNTHETIC_TARGET)
    rewards = {}
    for M in (1, 3, 5, 10):
        cfg = SvddSection(M=M, alpha=0.2, n_traj=1000, seed=11)
        rewards[M] = svdd_generate(pretrained["params"], cfg, reward)[1]
    wall = time.perf_counter() - t0
    p_top = sstats.ttest_ind(rewards[10], rewards[1], equal_var=False,
                             alternative="greater").pvalue
    pair_ps = [sstats.ttest_ind(rewards[b], rewards[a], equal_var=False,
                                alternative="greater").pvalue
               for a, b in ((1, 3), (3, 5), (5, 10))]
    means = {M: rewards[M].mean() for M in rewards}
    print(f"criterion 05: means " +
          " ".join(f"M={M}:{means[M]:.2f}" for M in (1, 3, 5, 10)) +
          f", p(10>1)={p_top:.1e} (< 0.01), pairwise p " +
          " ".join(f"{p:.1e}" for p in pair_ps) + f" (< 0.05), {wall:.0f}s (< 600)")
    assert p_top < 0.01
    assert all(p < 0.05 for p in pair_ps)
    assert wall < 600


def test_criterion_06_soft_value_approximation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    X = rng.standard_normal((2000, 1))
    norm, stats = normalize(Dataset(X=X))
    sched = make_schedule(20, beta_end=0.2)
    params, _ = train_ddpm(norm, sched, NetSection(hidden_dims=[64, 64]),
                           PretrainSection(epochs=100, batch_size=128, seed=3))
    params = replace(params, stats=stats)
    reward = SyntheticTargetReward(np.array([1.5]))
    alpha = 1.0
    rhos = {}
    for t in (5, 10, 15):
        rows = norm.X[rng.choice(2000, size=50, replace=False)]
        eps = rng.standard_normal(rows.shape)
        states = forward_marginal(rows, t, eps, sched)
        v_hat = _candidate_values(float32_params(params), reward,
                                  states[:, None, :], t)[:, 0]
        # the Monte Carlo oracle: 1000 plain ancestral completions of each state
        X = np.repeat(states, 1000, axis=0)
        mc_rng = np.random.default_rng(1000 + t)
        for s in range(t, 0, -1):
            eps_hat = predict_noise(params, X, s)
            X = reverse_step(X, s, eps_hat, sched, mc_rng.standard_normal(X.shape))
        r = reward.batch(denormalize(X, stats)).reshape(50, 1000) / alpha
        m = r.max(axis=1)
        v_mc = alpha * (m + np.log(np.mean(np.exp(r - m[:, None]), axis=1)))
        rhos[t] = sstats.spearmanr(v_hat, v_mc).statistic
    wall = time.perf_counter() - t0
    print("criterion 06: spearman " +
          " ".join(f"t={t}:{rhos[t]:.3f}" for t in (5, 10, 15)) +
          f" (> 0.9), {wall:.0f}s (< 300)")
    assert all(rho > 0.9 for rho in rhos.values())
    assert wall < 300


def test_criterion_07_finetuning_improvement(pretrained, finetuned):
    mr = np.array([h["mean_reward"] for h in finetuned["history"]])
    slope = np.polyfit(np.arange(len(mr)), mr, 1)[0]
    reward = finetuned["reward"]
    sched = pretrained["sched"]
    # both models carry the dataset's stats, so the samples are physical designs
    pre_r = reward.batch(ancestral_sample(pretrained["params"], 1000, 2024))
    post_r = reward.batch(ancestral_sample(finetuned["params"], 1000, 2024))
    p_val = sstats.ttest_ind(post_r, pre_r, equal_var=False,
                             alternative="greater").pvalue

    # a uniform-reward pass must reproduce the plain training epoch bitwise
    norm = pretrained["norm"]
    X = norm.X[:256]
    base = init_params(norm.d, NetSection(embed_dim=8, hidden_dims=[32]), sched, 9)
    p_a, p_b = clone_params(base), clone_params(base)
    cfg = FinetuneSection(alpha=0.8, batch_size=64)
    ddpm_epoch(p_a, init_opt_state(base, cfg.gamma), X,
               np.random.default_rng(np.random.SeedSequence(55)), 64)
    weighted_epoch(X, np.full(256, 7.25), p_b, init_opt_state(base, cfg.gamma),
                   np.random.default_rng(np.random.SeedSequence(55)), cfg)
    bitwise = np.array_equal(p_a.theta, p_b.theta) and not np.array_equal(p_a.theta, base.theta)
    print(f"criterion 07: history slope {slope:.4f} (> 0), post mean "
          f"{post_r.mean():.3f} vs pre {pre_r.mean():.3f}, p {p_val:.1e} "
          f"(< 0.01), uniform-weight epoch bitwise: {bitwise}")
    assert slope > 0
    assert p_val < 0.01
    assert bitwise


def test_criterion_08_beyond_distribution(bench_data, pretrained, finetuned):
    reward = finetuned["reward"]
    r_max = reward.batch(bench_data.X).max()

    t0 = time.perf_counter()
    cfg = SvddSection(M=10, alpha=0.2, n_traj=1000, seed=31)
    guided_r = svdd_generate(finetuned["params"], cfg, reward)[1]
    guided_wall = time.perf_counter() - t0
    frac_guided = float(np.mean(guided_r > r_max))

    pre_r = reward.batch(ancestral_sample(pretrained["params"], 1000, 2024))
    frac_unguided = float(np.mean(pre_r > r_max))
    total = TIMINGS["pretrain"] + TIMINGS["finetune"] + guided_wall
    print(f"criterion 08: guided frac above training max {frac_guided:.3f} "
          f"(> 0.20), unguided {frac_unguided:.4f} (< 0.01), pipeline "
          f"{total:.0f}s (< 900)")
    assert frac_guided > 0.20
    assert frac_unguided < 0.01
    assert total < 900


def test_criterion_09_friction_line():
    vals = {re: friction_coefficient(re) for re in (1e6, 1e8, 1e4)}
    errs = {
        1e6: abs(vals[1e6] - 0.0046875),
        1e8: abs(vals[1e8] - 0.075 / 36.0),
        1e4: abs(vals[1e4] - 0.01875),
    }
    print(f"criterion 09: C_f errors " +
          " ".join(f"Re={re:g}:{errs[re]:.1e}" for re in (1e6, 1e8, 1e4)) +
          " (< 1e-9)")
    assert all(err < 1e-9 for err in errs.values())


def test_criterion_10_michell_integral():
    t0 = time.perf_counter()
    # zero beam: no displacement, no waves
    flat = HullDims(LOA=80.0, L_b=20.0, L_s=20.0, B_d=0.0, D_d=6.4, B_s=0.0, WL=4.8)
    U = 0.3 * math.sqrt(9.81 * 80.0)
    rw_zero = michell_wave_resistance(flat, U, 0.5)[0]

    narrow = scale_params([0.25, 0.25, 0.08, 0.08, 0.5, 0.75], 80.0)
    wide = scale_params([0.25, 0.25, 0.16, 0.08, 0.5, 0.75], 80.0)
    ratio = michell_wave_resistance(wide, U, 0.5)[0] / michell_wave_resistance(narrow, U, 0.5)[0]
    scaling_err = abs(ratio / 4.0 - 1.0)

    canonical = scale_params([0.25, 0.25, 0.12, 0.08, 0.5, 0.75], 80.0)
    base = michell_wave_resistance(canonical, U, 0.5, n_lambda=256)[0]
    fine = michell_wave_resistance(canonical, U, 0.5, n_lambda=512)[0]
    convergence = abs(fine - base) / abs(base)

    rng = np.random.default_rng(10)
    lo = np.array([0.05, 0.05, 0.02, 0.02, 0.1, 0.2])
    hi = np.array([0.45, 0.45, 0.20, 0.12, 1.0, 1.0])
    min_rw, min_rf = np.inf, np.inf
    for _ in range(1000):
        p = lo + (hi - lo) * rng.random(6)
        res = aggregate_total_resistance(scale_params(p, 80.0))
        min_rw = min(min_rw, res.R_w.min())
        min_rf = min(min_rf, res.R_f.min())
    wall = time.perf_counter() - t0
    print(f"criterion 10: zero-beam R_w {rw_zero}, beam^2 error "
          f"{scaling_err:.2e} (< 0.005), lambda self-convergence "
          f"{convergence:.2e} (< 1e-3), min R_w {min_rw:.2e} min R_f "
          f"{min_rf:.2e} over 1000 hulls (>= 0), {wall:.0f}s (< 120)")
    assert rw_zero == 0.0
    assert scaling_err < 0.005
    assert convergence < 1e-3
    assert min_rw >= 0.0
    assert min_rf >= 0.0
    assert wall < 120


def test_criterion_11_surrogate_quality():
    t0 = time.perf_counter()
    data = benchmark.hull_resistance_dataset(5000, seed=17, loa=80.0)
    perm = np.random.default_rng(99).permutation(5000)
    tr, te = perm[:4000], perm[4000:]
    ens, mse = fit_ensemble(data.X[tr], data.rewards[tr])
    r2 = r2_score(predict_ensemble(ens, data.X[te]), data.rewards[te])
    h = np.array(mse)
    monotone = bool(np.all(np.diff(h) <= 1e-12 * np.maximum(1.0, h[:-1])))
    wall = time.perf_counter() - t0
    print(f"criterion 11: held-out R^2 {r2:.4f} (> 0.9), boosting MSE "
          f"monotone: {monotone}, {wall:.0f}s (< 120)")
    assert r2 > 0.9
    assert monotone
    assert wall < 120


def test_criterion_12_metrics():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        v = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        s = np.sort(v)
        stats = boxplot_stats(v)
        for q, got in ((0.25, stats.q1), (0.5, stats.median), (0.75, stats.q3)):
            pos = (n - 1) * q
            lo = int(math.floor(pos))
            hi = min(lo + 1, n - 1)
            ref = s[lo] * (1 - (pos - lo)) + s[hi] * (pos - lo)
            worst = max(worst, abs(got - ref))
    kde_errs = []
    for v in (rng.standard_normal(400), rng.exponential(1.5, 300)):
        grid, dens = kde(v)
        kde_errs.append(abs(np.trapezoid(dens, grid) - 1.0))
    exact = True
    for _ in range(50):
        sr = rng.standard_normal(int(rng.integers(1, 30)))
        tr = rng.standard_normal(int(rng.integers(1, 30)))
        out = beyond_distribution(sr, tr)
        count = sum(1 for x in sr if x > max(tr))
        exact &= out["fraction_above_training_max"] == count / len(sr)
        exact &= out["mean_shift"] == sr.mean() - tr.mean()
    print(f"criterion 12: worst quartile deviation {worst:.1e} (oracle "
          f"match), KDE integral errors {max(kde_errs):.1e} (< 1e-3), "
          f"beyond-distribution scans exact: {exact}")
    assert worst < 1e-12
    assert max(kde_errs) < 1e-3
    assert exact


def test_criterion_13_reproducibility(tmp_path):
    cfg = {
        "schedule": {"T": 50, "beta_end": 0.1},
        "net": {"embed_dim": 16, "hidden_dims": [64, 64]},
        "pretrain": {"epochs": 30, "batch_size": 128},
        "finetune": {"S": 6, "m": 64},
        "svdd": {"M": 3, "n_traj": 200},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    src = os.path.dirname(os.path.dirname(benchmark.__file__))

    def pipeline(outdir, threads):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        outdir.mkdir()

        def run(*cli_args):
            proc = subprocess.run([sys.executable, "-m", "rddkit.cli", *cli_args],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        data = outdir / "data.csv"
        run("benchmark", "make", "--n", "1000", "--seed", "0", "--out", str(data))
        run("pretrain", "--config", str(cfg_path), "--data", str(data),
            "--outdir", str(outdir))
        run("finetune", "--config", str(cfg_path),
            "--model", str(outdir / "model.rddm"), "--outdir", str(outdir))
        run("sample", "--config", str(cfg_path),
            "--model", str(outdir / "model_ft.rddm"), "--outdir", str(outdir),
            "--seed", "9")
        return (outdir / "samples.csv").read_bytes(), data.read_bytes()

    t0 = time.perf_counter()
    s1, d1 = pipeline(tmp_path / "run1", 1)
    s2, d2 = pipeline(tmp_path / "run2", 1)
    s3, d3 = pipeline(tmp_path / "run3", 4)
    wall = time.perf_counter() - t0
    same_run = s1 == s2 and d1 == d2
    same_threads = s1 == s3 and d1 == d3
    print(f"criterion 13: repeated run byte-identical: {same_run}, "
          f"thread-count invariant: {same_threads}, {wall:.0f}s")
    assert same_run
    assert same_threads
