"""Command-line entry points.

Subcommands cover the full workflow: generate benchmark data, pretrain a
denoiser, fine-tune it toward a reward, draw guided or unguided samples,
evaluate sample sets against training data, fit and score the hull
resistance surrogate, and evaluate single hulls.

Each command returns its run record and main archives it; a flag that
overrides the run config names the config key as its argparse dest.

Exit codes: 0 success, 1 usage or configuration error, 2 data or file error,
3 numerical failure.
"""

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone

import numpy as np

from rddkit import benchmark, config as cfgmod, rewards as rewardmod
from rddkit.data import load_dataset, normalize, save_samples, write_csv
from rddkit.denoiser import load_model, save_model
from rddkit.diffusion import make_schedule
from rddkit.exceptions import ConfigError, DataError, InfeasibleHullError, NumericalError
from rddkit.finetune import finetune
from rddkit.hull import N_PARAMS, aggregate_total_resistance, scale_params
from rddkit.metrics import beyond_distribution, boxplot_stats, kde
from rddkit.pretrain import train_ddpm
from rddkit.sampler import svdd_generate
from rddkit.trees import fit_ensemble, load_ensemble, predict_ensemble, r2_score, save_ensemble

log = logging.getLogger("rddkit")


# ---------------------------------------------------------------------------
# shared helpers

def _load_config(args):
    """The --config file (or the defaults), then every flag given whose argparse
    dest names a config key ('svdd.M', 'pretrain.seed', 'dataset'), validated."""
    cfg = cfgmod.parse_config(args.config) if args.config else cfgmod.RunConfig()
    for key, value in vars(args).items():
        section, _, name = key.rpartition(".")
        owner = getattr(cfg, section) if section else cfg
        if value is not None and name in {f.name for f in dataclasses.fields(owner)}:
            setattr(owner, name, value)
    return cfgmod.validate(cfg)


@contextmanager
def _stage(timings, name):
    """Record the wall time of the with-block as timings[name]."""
    t0 = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - t0


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    return path


def _report(result, out, timings):
    """Print a JSON result; with --out, also save it there and return its run record."""
    if out:
        _write_json(out, result)
    print(json.dumps(result, indent=2))
    return (os.path.dirname(out) or ".", None, timings, [out]) if out else None


def _archive_run(args, outdir, cfg, timings, outputs):
    """Drop the resolved config and a timing log next to the outputs, as
    <name>.config.json and <name>.run.json; `surrogate fit` is named surrogate_fit."""
    words = [args.command] + ([args.subcommand] if getattr(args, "subcommand", None) else [])
    name = "_".join(words)
    if cfg is not None:
        cfgmod.save_config(cfg, os.path.join(outdir, f"{name}.config.json"))
    _write_json(os.path.join(outdir, f"{name}.run.json"), {
        "command": " ".join(words),
        "argv": args.argv,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "timings_seconds": {k: round(v, 6) for k, v in timings.items()},
        "outputs": outputs,
    })


def _build_reward(rc, d):
    """The reward rewards.from_section builds from rc; this loads the tree file it scores with."""
    ensemble = load_ensemble(rc.surrogate_path) if rc.kind in ("surrogate", "airfoil") else None
    return rewardmod.from_section(rc, d, ensemble)


def _load_model(path, cfg):
    """load_model(path), with cfg.schedule and cfg.net set to the file's, so
    the archived config states the schedule and network that ran."""
    params = load_model(path)
    betas = params.sched.betas
    cfg.schedule = cfgmod.ScheduleSection(params.sched.T, float(betas[1]), float(betas[-1]))
    cfg.net = cfgmod.NetSection(params.embed_dim, list(params.hidden_dims))
    return params


def _load_labelled(path, purpose):
    data = load_dataset(path)
    if data.rewards is None:
        raise DataError(f"{path}: needs a reward column {purpose}")
    return data


# ---------------------------------------------------------------------------
# subcommand bodies: each returns its run record (outdir, cfg, timings,
# outputs) for main to archive, or None when it wrote no file

def cmd_pretrain(args):
    cfg = _load_config(args)
    if not cfg.dataset:
        raise ConfigError("no dataset given: pass --data or set 'dataset' in the config")
    timings = {}
    with _stage(timings, "load"):
        data = load_dataset(cfg.dataset)
        try:
            norm, stats = normalize(data)
        except DataError as e:
            raise DataError(f"{cfg.dataset}: {e}") from None
    os.makedirs(cfg.outdir, exist_ok=True)
    sched = make_schedule(cfg.schedule.T, cfg.schedule.beta_start, cfg.schedule.beta_end)
    with _stage(timings, "train"):
        params, history = train_ddpm(norm, sched, cfg.net, cfg.pretrain)

    model_path = os.path.join(cfg.outdir, "model.rddm")
    save_model(model_path, dataclasses.replace(params, stats=stats))
    hist_path = write_csv(os.path.join(cfg.outdir, "pretrain_history.csv"),
                          ["epoch", "mean_loss"],
                          np.column_stack([np.arange(len(history)), history]))
    log.info("saved model to %s (final loss %.6f)", model_path,
             history[-1] if history else float("nan"))
    return cfg.outdir, cfg, timings, [model_path, hist_path]


def cmd_finetune(args):
    cfg = _load_config(args)
    timings = {}
    with _stage(timings, "load"):
        params_pre = _load_model(args.model, cfg)
    reward = _build_reward(cfg.reward, params_pre.d)
    os.makedirs(cfg.outdir, exist_ok=True)
    with _stage(timings, "finetune"):
        params, history = finetune(params_pre, reward, cfg.finetune)

    model_path = os.path.join(cfg.outdir, "model_ft.rddm")
    save_model(model_path, params)
    columns = ["iteration", "mean_reward", "mean_loss"]
    hist_path = write_csv(os.path.join(cfg.outdir, "finetune_history.csv"), columns,
                          np.column_stack([[r[k] for r in history] for k in columns]))
    log.info("saved fine-tuned model to %s", model_path)
    return cfg.outdir, cfg, timings, [model_path, hist_path]


def cmd_sample(args):
    cfg = _load_config(args)
    timings = {}
    with _stage(timings, "load"):
        params = _load_model(args.model, cfg)
    reward = _build_reward(cfg.reward, params.d)
    os.makedirs(cfg.outdir, exist_ok=True)
    with _stage(timings, "sample"):
        designs, rewards = svdd_generate(params, cfg.svdd, reward)

    samples_path = os.path.join(cfg.outdir, "samples.csv")
    save_samples(samples_path, designs, rewards)
    r = np.asarray(rewards, dtype=np.float64)
    summary = {"n": int(r.size), "mean_reward": float(np.mean(r)),
               "median_reward": float(np.median(r)), "max_reward": float(np.max(r)),
               "min_reward": float(np.min(r)), "M": cfg.svdd.M, "alpha": cfg.svdd.alpha,
               "seed": cfg.svdd.seed, "wall_seconds": round(timings["sample"], 6)}
    summary_path = _write_json(os.path.join(cfg.outdir, "sample_summary.json"), summary)
    log.info("wrote %d samples to %s (mean reward %.4f)",
             len(rewards), samples_path, summary["mean_reward"])
    return cfg.outdir, cfg, timings, [samples_path, summary_path]


def cmd_eval(args):
    timings = {}
    with _stage(timings, "load"):
        samples = _load_labelled(args.samples, "for evaluation")
        train = _load_labelled(args.train, "for evaluation")
        for path, data in ((args.samples, samples), (args.train, train)):
            if data.n == 0:
                raise DataError(f"{path}: no rows to evaluate")
    os.makedirs(args.outdir, exist_ok=True)

    with _stage(timings, "eval"):
        stats = {
            "samples": boxplot_stats(samples.rewards).to_dict(),
            "training": boxplot_stats(train.rewards).to_dict(),
            "beyond_distribution": beyond_distribution(samples.rewards, train.rewards),
        }
        grid, dens_s = kde(samples.rewards)
        dens_t = kde(train.rewards, grid=grid)[1]

    stats_path = _write_json(os.path.join(args.outdir, "eval_stats.json"), stats)
    dens_path = write_csv(os.path.join(args.outdir, "reward_density.csv"),
                          ["reward", "density_samples", "density_training"],
                          np.column_stack([grid, dens_s, dens_t]))
    frac = stats["beyond_distribution"]["fraction_above_training_max"]
    log.info("%.1f%% of samples beat the best training reward", 100.0 * frac)
    return args.outdir, None, timings, [stats_path, dens_path]


def cmd_surrogate_fit(args):
    timings = {}
    with _stage(timings, "load"):
        data = _load_labelled(args.data, "to fit against")
    with _stage(timings, "fit"):
        ensemble, mse_history = fit_ensemble(data.X, data.rewards,
                                             n_trees=args.trees,
                                             max_depth=args.depth,
                                             shrinkage=args.shrinkage)
    save_ensemble(args.out, ensemble)

    outdir = os.path.dirname(args.out) or "."
    report = {"n_rows": int(data.n), "n_trees": ensemble.n_trees,
              "max_depth": ensemble.max_depth, "shrinkage": ensemble.shrinkage,
              "train_mse_first": mse_history[0] if mse_history else None,
              "train_mse_last": mse_history[-1] if mse_history else None}
    report_path = _write_json(os.path.join(outdir, "surrogate_fit.json"), report)
    log.info("fitted %d trees; train MSE %s -> %s", ensemble.n_trees,
             report["train_mse_first"], report["train_mse_last"])
    return outdir, None, timings, [args.out, report_path]


def cmd_surrogate_eval(args):
    timings = {}
    with _stage(timings, "load"):
        data = _load_labelled(args.data, "to score against")
        ensemble = load_ensemble(args.model)
        if data.d != ensemble.d:
            raise DataError(f"{args.data}: {data.d} input columns, but the surrogate "
                            f"{args.model} takes {ensemble.d}")
        if data.n < 2:
            raise DataError(f"{args.data}: need at least 2 rows to score a surrogate, "
                            f"got {data.n}")
    with _stage(timings, "predict"):
        pred = predict_ensemble(ensemble, data.X)
    return _report({
        "n_rows": int(data.n),
        "r2": r2_score(pred, data.rewards),
        "mse": float(np.mean((pred - data.rewards) ** 2)),
    }, args.out, timings)


def cmd_hull_eval(args):
    try:
        p = np.array([float(v) for v in args.params.split(",")], dtype=np.float64)
    except ValueError:
        p = None
    if p is None or p.shape != (N_PARAMS,):
        raise ConfigError(f"--params: expected {N_PARAMS} comma-separated numbers")
    timings = {}
    with _stage(timings, "eval"):
        result = aggregate_total_resistance(scale_params(p, args.loa)).to_dict()
    return _report(result, args.out, timings)


def cmd_hull_dataset(args):
    timings = {}
    with _stage(timings, "label"):
        data = benchmark.hull_resistance_dataset(args.n, args.seed, loa=args.loa)
    save_samples(args.out, data.X, data.rewards)
    log.info("wrote %d labeled hulls to %s in %.1fs", args.n, args.out, timings["label"])
    return os.path.dirname(args.out) or ".", None, timings, [args.out]


def cmd_benchmark_make(args):
    timings = {}
    with _stage(timings, "make"):
        X = benchmark.make_mixture_dataset(args.n, args.seed).X
        reward = rewardmod.SyntheticTargetReward(benchmark.SYNTHETIC_TARGET)
        rewards = rewardmod.evaluate(reward, X)
    save_samples(args.out, X, rewards)
    log.info("wrote %d benchmark rows to %s", args.n, args.out)
    return os.path.dirname(args.out) or ".", None, timings, [args.out]


# ---------------------------------------------------------------------------
# parser

def _count(text):
    """argparse type of seeds, row counts, tree counts and depths: integers >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _length(text):
    """argparse type of hull lengths in metres: finite numbers > 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rddkit",
        description="Reward-directed diffusion toolkit for tabular design optimization.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train a denoiser on a CSV dataset")
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--data", dest="dataset", help="training CSV (overrides config)")
    p.add_argument("--outdir", help="output directory (overrides config)")
    p.add_argument("--epochs", dest="pretrain.epochs", type=int)
    p.add_argument("--seed", dest="pretrain.seed", type=_count)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="reward-weighted fine-tuning of a model")
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--model", required=True, help="pretrained model file")
    p.add_argument("--outdir", help="output directory (overrides config)")
    p.add_argument("--seed", dest="finetune.seed", type=_count)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("sample", help="draw guided or unguided samples")
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--model", required=True, help="model file to sample from")
    p.add_argument("--outdir", help="output directory (overrides config)")
    p.add_argument("--M", dest="svdd.M", type=int, help="candidates per step (1 = unguided)")
    p.add_argument("--alpha", dest="svdd.alpha", type=float, help="selection temperature")
    p.add_argument("--n-traj", dest="svdd.n_traj", type=int, help="number of samples")
    p.add_argument("--seed", dest="svdd.seed", type=_count)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="compare sample rewards to training rewards")
    p.add_argument("--samples", required=True, help="samples CSV with reward column")
    p.add_argument("--train", required=True, help="training CSV with reward column")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("surrogate", help="gradient-boosted resistance surrogate")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    q = ssub.add_parser("fit", help="fit trees to a labeled dataset")
    q.add_argument("--data", required=True, help="CSV with reward column")
    q.add_argument("--out", required=True, help="output surrogate file")
    q.add_argument("--trees", type=_count, default=200)
    q.add_argument("--depth", type=_count, default=4)
    q.add_argument("--shrinkage", type=float, default=0.1)
    q.set_defaults(func=cmd_surrogate_fit)
    q = ssub.add_parser("eval", help="score a surrogate on held-out data")
    q.add_argument("--model", required=True, help="surrogate file")
    q.add_argument("--data", required=True, help="CSV with reward column")
    q.add_argument("--out", help="optional JSON output path")
    q.set_defaults(func=cmd_surrogate_eval)

    p = sub.add_parser("hull", help="hull resistance utilities")
    hsub = p.add_subparsers(dest="subcommand", required=True)
    q = hsub.add_parser("eval", help="resistance curves for one parameter vector")
    q.add_argument("--params", required=True,
                   help=f"{N_PARAMS} comma-separated fractions in [0.001, 1], "
                        "bow and stern taper summing to at most 1")
    q.add_argument("--loa", type=_length, default=cfgmod.RewardSection.loa)
    q.add_argument("--out", help="optional JSON output path")
    q.set_defaults(func=cmd_hull_eval)
    q = hsub.add_parser("dataset", help="random labeled hulls for surrogate fitting")
    q.add_argument("--n", type=_count, default=5000)
    q.add_argument("--seed", type=_count, default=0)
    q.add_argument("--loa", type=_length, default=cfgmod.RewardSection.loa)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_hull_dataset)

    p = sub.add_parser("benchmark", help="synthetic benchmark data")
    bsub = p.add_subparsers(dest="subcommand", required=True)
    q = bsub.add_parser("make", help="two-mode Gaussian mixture with rewards")
    q.add_argument("--n", type=_count, default=5000)
    q.add_argument("--seed", type=_count, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_benchmark_make)

    return parser


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; fold those into the config code
        return 0 if e.code in (0, None) else 1
    args.argv = argv
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        record = args.func(args)
        if record is not None:
            _archive_run(args, *record)
        return 0
    except ConfigError as e:
        log.error("config error: %s", e)
        return 1
    except (DataError, InfeasibleHullError, OSError) as e:
        log.error("data error: %s", e)
        return 2
    except NumericalError as e:
        log.error("numerical failure: %s", e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
