"""The three benchmark workloads.

Each workload has a set-up (run several times, untimed in the measured
phase) and a pass: the stages a user would run, called through
``rddkit.cli.main`` in-process, plus library calls where no subcommand
exists. Every pass of a run repeats the same inputs, so its outputs must be
byte-identical across passes; that is one of the output checks.

- mixture_svdd: SVDD sampling on the 2-d mixture. Network-bound: the
  synthetic reward is vectorised and almost free. Training, hull and trees
  are bypassed.
- mixture_train: pretraining then reward-weighted fine-tuning on the same
  mixture. Optimizer-bound small-batch work; the large sampling forward
  passes are bypassed.
- hull_design: hull labelling, surrogate fit and scoring, then SVDD guided
  by the surrogate and re-scored with the physics. The only workload that
  reaches hull and trees; its sampler is reward-bound.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from rddkit import benchmark
from rddkit.data import load_dataset, save_samples
from rddkit.rewards import HullResistanceReward, ship_reward


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one run. FULL is the benchmark; TINY is for the smoke test."""
    mixture_rows: int
    T: int
    embed_dim: int
    hidden: tuple
    setup_repeats: int
    svdd_setup_epochs: int
    svdd_n_traj: int
    M: int
    train_epochs: int
    finetune_S: int
    finetune_m: int
    hull_setup_rows: int
    hull_setup_epochs: int
    hull_rows: int
    trees: int
    depth: int
    hull_n_traj: int


FULL = Sizes(mixture_rows=5000, T=100, embed_dim=32, hidden=(256, 256), setup_repeats=3,
             svdd_setup_epochs=4, svdd_n_traj=200, M=10,
             train_epochs=4, finetune_S=3, finetune_m=256,
             hull_setup_rows=2000, hull_setup_epochs=10, hull_rows=120, trees=200, depth=4,
             hull_n_traj=32)

TINY = Sizes(mixture_rows=200, T=10, embed_dim=8, hidden=(16, 16), setup_repeats=2,
             svdd_setup_epochs=1, svdd_n_traj=8, M=4,
             train_epochs=2, finetune_S=2, finetune_m=8,
             hull_setup_rows=64, hull_setup_epochs=1, hull_rows=20, trees=5, depth=2,
             hull_n_traj=4)

SVDD_ALPHA = 0.2
BETA_END = 0.1
PRETRAIN_BATCH = 128
FINETUNE_BATCH = 64
HULL_LOA = 80.0
# the scale of HullResistanceReward: reward = -1e-6 * aggregate resistance
HULL_REWARD_SCALE = 1e-6
TRAIN_FRACTION = 0.8


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _history(path):
    """Rows of a *_history.csv as a float array (header dropped)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Workload:
    """Directories, seeds and the shared run config of one workload run."""

    name = None

    def __init__(self, sizes, seed, workdir):
        self.sizes = sizes
        self.setup_dir = os.path.join(workdir, "setup")
        self.pass_dir = os.path.join(workdir, "pass")
        os.makedirs(self.setup_dir, exist_ok=True)
        os.makedirs(self.pass_dir, exist_ok=True)
        # the program sees only these generated values, never the seed itself
        (self.data_seed, self.train_seed, self.sample_seed,
         self.finetune_seed, self.label_seed, self.split_seed) = (
            int(s) for s in np.random.SeedSequence(seed).generate_state(6))
        self.config = os.path.join(self.setup_dir, "config.json")
        _write_json(self.config, self.run_config())

    def setup_path(self, name):
        return os.path.join(self.setup_dir, name)

    def pass_path(self, name):
        return os.path.join(self.pass_dir, name)

    def run_config(self, reward=None):
        s = self.sizes
        return {
            "schedule": {"T": s.T, "beta_end": BETA_END},
            "net": {"embed_dim": s.embed_dim, "hidden_dims": list(s.hidden)},
            "pretrain": {"batch_size": PRETRAIN_BATCH},
            "finetune": {"S": s.finetune_S, "m": s.finetune_m,
                         "batch_size": FINETUNE_BATCH, "kl_anchor": True},
            "svdd": {"M": s.M, "alpha": SVDD_ALPHA},
            "reward": reward or {"kind": "synthetic"},
        }

    def check_samples(self, ops, path, n, d):
        data = load_dataset(path)
        ok = (data.X.shape == (n, d) and data.rewards is not None
              and bool(np.all(np.isfinite(data.X))) and bool(np.all(np.isfinite(data.rewards))))
        ops.check(f"{os.path.basename(path)}: {n} finite samples", ok)
        return data

    def check_keys(self, ops, path, keys):
        try:
            obj = _read_json(path)
        except (OSError, ValueError):
            obj = {}
        ops.check(f"{os.path.basename(path)} carries {', '.join(keys)}",
                  all(k in obj for k in keys))
        return obj


class MixtureSvdd(Workload):
    name = "mixture_svdd"

    def setup(self, ops):
        s = self.sizes
        ops.cli("benchmark make", ["benchmark", "make", "--n", str(s.mixture_rows),
                                   "--seed", str(self.data_seed),
                                   "--out", self.setup_path("data.csv")])
        ops.cli("pretrain", ["pretrain", "--config", self.config,
                             "--data", self.setup_path("data.csv"), "--outdir", self.setup_dir,
                             "--epochs", str(s.svdd_setup_epochs),
                             "--seed", str(self.train_seed)])
        return sha256(self.setup_path("model.rddm"))

    def run_pass(self, ops):
        s = self.sizes
        times = {}
        times["sample"] = ops.cli("sample", [
            "sample", "--config", self.config, "--model", self.setup_path("model.rddm"),
            "--outdir", self.pass_dir, "--M", str(s.M), "--alpha", str(SVDD_ALPHA),
            "--n-traj", str(s.svdd_n_traj), "--seed", str(self.sample_seed)])
        times["eval"] = ops.cli("eval", [
            "eval", "--samples", self.pass_path("samples.csv"),
            "--train", self.setup_path("data.csv"), "--outdir", self.pass_dir])
        return times

    def check(self, ops):
        samples = self.check_samples(ops, self.pass_path("samples.csv"), self.sizes.svdd_n_traj, 2)
        ev = self.check_keys(ops, self.pass_path("eval_stats.json"),
                             ["samples", "training", "beyond_distribution"])
        train = load_dataset(self.setup_path("data.csv"))
        guided = float(np.mean(samples.rewards))
        ops.check("guided mean reward beats the training mean", guided > float(np.mean(train.rewards)))
        quality = {
            "guided_mean_reward": (guided, "reward"),
            "frac_above_train_max": (float(ev.get("beyond_distribution", {}).get(
                "fraction_above_training_max", float("nan"))), "fraction"),
        }
        return sha256(self.pass_path("samples.csv")), quality

    def throughput(self, times):
        return {"svdd_traj_per_s": (self.sizes.svdd_n_traj / times["sample"], "trajectories/s")}

    def stated_size(self):
        s = self.sizes
        return (f"M={s.M}, T={s.T}, n_traj={s.svdd_n_traj}; net embed {s.embed_dim}, hidden "
                f"{'x'.join(map(str, s.hidden))}, pretrained {s.svdd_setup_epochs} epochs "
                f"on {s.mixture_rows} rows")


class MixtureTrain(Workload):
    name = "mixture_train"

    def setup(self, ops):
        ops.cli("benchmark make", ["benchmark", "make", "--n", str(self.sizes.mixture_rows),
                                   "--seed", str(self.data_seed),
                                   "--out", self.setup_path("data.csv")])
        return sha256(self.setup_path("data.csv"))

    def run_pass(self, ops):
        s = self.sizes
        times = {}
        times["pretrain"] = ops.cli("pretrain", [
            "pretrain", "--config", self.config, "--data", self.setup_path("data.csv"),
            "--outdir", self.pass_dir, "--epochs", str(s.train_epochs),
            "--seed", str(self.train_seed)])
        times["finetune"] = ops.cli("finetune", [
            "finetune", "--config", self.config, "--model", self.pass_path("model.rddm"),
            "--outdir", self.pass_dir, "--seed", str(self.finetune_seed)])
        return times

    def check(self, ops):
        s = self.sizes
        pre = _history(self.pass_path("pretrain_history.csv"))
        ops.check(f"pretrain history: {s.train_epochs} finite epochs",
                  pre.shape == (s.train_epochs, 2) and bool(np.all(np.isfinite(pre))))
        ft = _history(self.pass_path("finetune_history.csv"))
        ops.check(f"finetune history: {s.finetune_S} finite iterations",
                  ft.shape == (s.finetune_S, 3) and bool(np.all(np.isfinite(ft))))
        quality = {
            "pretrain_final_loss": (float(pre[-1, 1]), "loss"),
            "finetune_reward_gain": (float(ft[-1, 1] - ft[0, 1]), "reward"),
        }
        # fine-tuning has no samples.csv; the fine-tuned model is its output
        return sha256(self.pass_path("model_ft.rddm")), quality

    def throughput(self, times):
        s = self.sizes
        steps = s.train_epochs * max(1, math.ceil(s.mixture_rows / PRETRAIN_BATCH))
        return {
            "train_rows_per_s": (steps * PRETRAIN_BATCH / times["pretrain"], "rows/s"),
            "finetune_iters_per_s": (s.finetune_S / times["finetune"], "iter/s"),
        }

    def stated_size(self):
        s = self.sizes
        return (f"{s.mixture_rows} rows, {s.train_epochs} epochs at batch {PRETRAIN_BATCH}; "
                f"S={s.finetune_S}, m={s.finetune_m}, batch {FINETUNE_BATCH}, T={s.T}")


class HullDesign(Workload):
    name = "hull_design"

    def setup(self, ops):
        s = self.sizes
        params = benchmark.sample_hull_params(s.hull_setup_rows, self.data_seed)
        ops.library("hull params", lambda: save_samples(self.setup_path("params.csv"), params))
        ops.cli("pretrain", ["pretrain", "--config", self.config,
                             "--data", self.setup_path("params.csv"), "--outdir", self.setup_dir,
                             "--epochs", str(s.hull_setup_epochs),
                             "--seed", str(self.train_seed)])
        return sha256(self.setup_path("model.rddm"))

    def run_config(self, reward=None):
        return super().run_config(reward or {
            "kind": "surrogate", "surrogate_path": os.path.join(self.pass_dir, "surrogate.rddt")})

    def _split(self):
        """Negate resistance into the physics reward and split train/test.

        `hull dataset` labels rows with aggregate resistance, where lower is
        better; the surrogate must learn a reward where higher is better.
        """
        data = load_dataset(self.pass_path("hulls.csv"))
        y = ship_reward(data.rewards, HULL_REWARD_SCALE, 0.0)
        perm = np.random.default_rng(self.split_seed).permutation(data.n)
        cut = int(round(TRAIN_FRACTION * data.n))
        save_samples(self.pass_path("train.csv"), data.X[perm[:cut]], y[perm[:cut]])
        save_samples(self.pass_path("test.csv"), data.X[perm[cut:]], y[perm[cut:]])

    def _rescore(self):
        designs = load_dataset(self.pass_path("samples.csv")).X
        reward = HullResistanceReward(loa=HULL_LOA, scale=HULL_REWARD_SCALE)
        self.physics = reward.batch(designs)

    def run_pass(self, ops):
        s = self.sizes
        times = {}
        times["hull dataset"] = ops.cli("hull dataset", [
            "hull", "dataset", "--n", str(s.hull_rows), "--seed", str(self.label_seed),
            "--loa", str(HULL_LOA), "--out", self.pass_path("hulls.csv")])
        times["split"] = ops.library("split", self._split)
        times["surrogate fit"] = ops.cli("surrogate fit", [
            "surrogate", "fit", "--data", self.pass_path("train.csv"),
            "--out", self.pass_path("surrogate.rddt"),
            "--trees", str(s.trees), "--depth", str(s.depth)])
        times["surrogate eval"] = ops.cli("surrogate eval", [
            "surrogate", "eval", "--model", self.pass_path("surrogate.rddt"),
            "--data", self.pass_path("test.csv"), "--out", self.pass_path("surrogate_eval.json")])
        times["sample"] = ops.cli("sample", [
            "sample", "--config", self.config, "--model", self.setup_path("model.rddm"),
            "--outdir", self.pass_dir, "--M", str(s.M), "--alpha", str(SVDD_ALPHA),
            "--n-traj", str(s.hull_n_traj), "--seed", str(self.sample_seed)])
        times["rescore"] = ops.library("rescore", self._rescore)
        return times

    def check(self, ops):
        s = self.sizes
        hulls = self.check_samples(ops, self.pass_path("hulls.csv"), s.hull_rows, 6)
        self.check_keys(ops, self.pass_path("surrogate_fit.json"),
                        ["n_rows", "n_trees", "max_depth", "train_mse_first", "train_mse_last"])
        ev = self.check_keys(ops, self.pass_path("surrogate_eval.json"), ["n_rows", "r2", "mse"])
        samples = self.check_samples(ops, self.pass_path("samples.csv"), s.hull_n_traj, 6)
        ops.check("physics rewards of guided designs are finite",
                  self.physics.shape == (s.hull_n_traj,) and bool(np.all(np.isfinite(self.physics))))
        labelled = ship_reward(hulls.rewards, HULL_REWARD_SCALE, 0.0)
        # infeasible designs score -(1000 + violation) and dominate the mean
        feasible = self.physics > -HullResistanceReward.infeasible_base
        quality = {
            "guided_feasible_fraction": (float(np.mean(feasible)), "fraction"),
            "surrogate_r2": (float(ev.get("r2", float("nan"))), "R2"),
            "guided_mean_reward": (float(np.mean(samples.rewards)), "reward"),
            "physics_verified_gain": (float(np.mean(self.physics) - np.mean(labelled)), "reward"),
        }
        return sha256(self.pass_path("samples.csv")), quality

    def throughput(self, times):
        s = self.sizes
        return {
            "hull_designs_per_s": (s.hull_rows / times["hull dataset"], "designs/s"),
            "surrogate_fit_s": (times["surrogate fit"], "s"),
            "svdd_traj_per_s": (s.hull_n_traj / times["sample"], "trajectories/s"),
        }

    def stated_size(self):
        s = self.sizes
        cut = int(round(TRAIN_FRACTION * s.hull_rows))
        return (f"{s.hull_rows} hulls (fit on {cut}, {s.trees} trees depth {s.depth}); "
                f"M={s.M}, T={s.T}, n_traj={s.hull_n_traj}; denoiser pretrained "
                f"{s.hull_setup_epochs} epochs on {s.hull_setup_rows} rows")


WORKLOADS = {w.name: w for w in (MixtureSvdd, MixtureTrain, HullDesign)}
