"""Command-line entry points.

Subcommands cover the full workflow: generate benchmark data, pretrain a
denoiser, fine-tune it toward a reward, draw guided or unguided samples,
evaluate sample sets against training data, fit and score the hull
resistance surrogate, and evaluate single hulls.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical failure.
"""

import argparse
import json
import logging
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from rddkit import benchmark, config as cfgmod
from rddkit.data import Dataset, denormalize, load_dataset, normalize, save_samples
from rddkit.denoiser import load_model, save_model
from rddkit.diffusion import make_schedule
from rddkit.exceptions import ConfigError, DataError, InfeasibleHullError, NumericalError
from rddkit.finetune import finetune
from rddkit.hull import N_PARAMS, aggregate_total_resistance, scale_params
from rddkit.metrics import beyond_distribution, boxplot_stats, kde
from rddkit.pretrain import train_ddpm
from rddkit.rewards import (
    AIRFOIL_WIDTH,
    AirfoilFeasibilityReward,
    HullResistanceReward,
    SurrogateReward,
    SyntheticTargetReward,
)
from rddkit.sampler import svdd_generate
from rddkit.trees import fit_ensemble, load_ensemble, predict_ensemble, r2_score, save_ensemble

log = logging.getLogger("rddkit")


# ---------------------------------------------------------------------------
# shared helpers

def _load_config(args):
    if getattr(args, "config", None):
        cfg = cfgmod.parse_config(args.config)
    else:
        cfg = cfgmod.validate(cfgmod.RunConfig())
    return cfg


def _ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _outpath(outdir, name):
    return os.path.join(outdir, name)


def _archive_run(args, outdir, cfg, timings, outputs):
    """Drop the resolved config and a timing log next to the outputs."""
    command = args.command
    if cfg is not None:
        cfgmod.save_config(cfg, _outpath(outdir, f"{command}.config.json"))
    record = {
        "command": command,
        "argv": args.argv,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "timings_seconds": {k: round(v, 6) for k, v in timings.items()},
        "outputs": outputs,
    }
    with open(_outpath(outdir, f"{command}.run.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def _check_reward_width(kind, width, d):
    if d != width:
        raise ConfigError(f"reward.kind: '{kind}' rewards take {width} inputs, "
                          f"the model has {d}")


def _build_reward(rc, d):
    """Reward model from the reward config section, for d-dimensional designs."""
    if rc.kind == "synthetic":
        target = np.asarray(rc.target, dtype=np.float64) if rc.target is not None \
            else benchmark.SYNTHETIC_TARGET
        if target.shape != (d,):
            raise ConfigError(f"reward.target: needs {d} entries to match the model, "
                              f"got {target.size}")
        return SyntheticTargetReward(target)
    if rc.kind == "hull":
        _check_reward_width(rc.kind, N_PARAMS, d)
        return HullResistanceReward(loa=rc.loa, scale=rc.scale, offset=rc.offset)
    if rc.kind in ("surrogate", "airfoil"):
        ensemble = load_ensemble(rc.surrogate_path)
        if ensemble.d != d:
            raise ConfigError(f"reward.surrogate_path: surrogate takes {ensemble.d} inputs, "
                              f"the model has {d}")
        base = SurrogateReward(ensemble)
        if rc.kind == "surrogate":
            return base
        _check_reward_width(rc.kind, AIRFOIL_WIDTH, d)
        return AirfoilFeasibilityReward(base, lambda_range=rc.lambda_range,
                                        lambda_intersect=rc.lambda_intersect)
    raise ConfigError(f"reward.kind: unknown reward '{rc.kind}'")


def _load_model_bundle(path):
    params, meta, stats = load_model(path)
    sched = make_schedule(meta["T"], meta["beta_start"], meta["beta_end"])
    return params, sched, meta, stats


def _reward_summary(rewards):
    r = np.asarray(rewards, dtype=np.float64)
    return {
        "n": int(r.size),
        "mean_reward": float(np.mean(r)),
        "median_reward": float(np.median(r)),
        "max_reward": float(np.max(r)),
        "min_reward": float(np.min(r)),
    }


# ---------------------------------------------------------------------------
# subcommand bodies

def cmd_pretrain(args):
    cfg = _load_config(args)
    data_path = args.data or cfg.dataset
    if not data_path:
        raise ConfigError("no dataset given: pass --data or set 'dataset' in the config")
    cfg.dataset = data_path
    if args.epochs is not None:
        cfg.pretrain.epochs = args.epochs
    if args.seed is not None:
        cfg.pretrain.seed = args.seed
    cfgmod.validate(cfg)
    outdir = _ensure_outdir(args.outdir or cfg.outdir)
    cfg.outdir = outdir

    timings = {}
    t0 = time.perf_counter()
    dataset = load_dataset(data_path)
    norm, stats = normalize(dataset)
    timings["load"] = time.perf_counter() - t0

    sched = make_schedule(cfg.schedule.T, cfg.schedule.beta_start, cfg.schedule.beta_end)
    t0 = time.perf_counter()
    params, history = train_ddpm(norm, sched, cfg.net,
                                 epochs=cfg.pretrain.epochs,
                                 batch_size=cfg.pretrain.batch_size,
                                 seed=cfg.pretrain.seed,
                                 learning_rate=cfg.pretrain.learning_rate)
    timings["train"] = time.perf_counter() - t0

    model_path = _outpath(outdir, args.model_name)
    save_model(model_path, params, cfg.schedule.T, cfg.schedule.beta_start,
               cfg.schedule.beta_end, stats=stats)
    hist_path = _outpath(outdir, "pretrain_history.csv")
    with open(hist_path, "w") as fh:
        fh.write("epoch,mean_loss\n")
        for i, loss in enumerate(history):
            fh.write(f"{i},{format(loss, '.17g')}\n")
    _archive_run(args, outdir, cfg, timings, [model_path, hist_path])
    log.info("saved model to %s (final loss %.6f)", model_path,
             history[-1] if history else float("nan"))
    return 0


def cmd_finetune(args):
    cfg = _load_config(args)
    if args.seed is not None:
        cfg.finetune.seed = args.seed
    cfgmod.validate(cfg)

    t0 = time.perf_counter()
    params_pre, sched, meta, stats = _load_model_bundle(args.model)
    timings = {"load": time.perf_counter() - t0}

    reward = _build_reward(cfg.reward, params_pre.d)
    outdir = _ensure_outdir(args.outdir or cfg.outdir)
    cfg.outdir = outdir
    t0 = time.perf_counter()
    params, history = finetune(params_pre, reward, cfg.finetune, sched, stats=stats)
    timings["finetune"] = time.perf_counter() - t0

    model_path = _outpath(outdir, args.model_name)
    save_model(model_path, params, meta["T"], meta["beta_start"],
               meta["beta_end"], stats=stats)
    hist_path = _outpath(outdir, "finetune_history.csv")
    with open(hist_path, "w") as fh:
        fh.write("iteration,mean_reward,mean_loss\n")
        for row in history:
            fh.write(f"{row['iteration']},{format(row['mean_reward'], '.17g')},"
                     f"{format(row['mean_loss'], '.17g')}\n")
    _archive_run(args, outdir, cfg, timings, [model_path, hist_path])
    log.info("saved fine-tuned model to %s", model_path)
    return 0


def cmd_sample(args):
    cfg = _load_config(args)
    if args.M is not None:
        cfg.svdd.M = args.M
    if args.alpha is not None:
        cfg.svdd.alpha = args.alpha
    if args.n_traj is not None:
        cfg.svdd.n_traj = args.n_traj
    if args.seed is not None:
        cfg.svdd.seed = args.seed
    cfgmod.validate(cfg)

    t0 = time.perf_counter()
    params, sched, meta, stats = _load_model_bundle(args.model)
    timings = {"load": time.perf_counter() - t0}

    reward = _build_reward(cfg.reward, params.d)
    outdir = _ensure_outdir(args.outdir or cfg.outdir)
    cfg.outdir = outdir
    t0 = time.perf_counter()
    X0, rewards, _, _ = svdd_generate(params, sched, cfg.svdd, reward, stats=stats)
    timings["sample"] = time.perf_counter() - t0

    designs = denormalize(X0, stats) if stats is not None else X0
    samples_path = _outpath(outdir, args.samples_name)
    save_samples(samples_path, designs, rewards)

    summary = _reward_summary(rewards)
    summary.update({"M": cfg.svdd.M, "alpha": cfg.svdd.alpha, "seed": cfg.svdd.seed,
                    "wall_seconds": round(timings["sample"], 6)})
    summary_path = _outpath(outdir, "sample_summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    _archive_run(args, outdir, cfg, timings, [samples_path, summary_path])
    log.info("wrote %d samples to %s (mean reward %.4f)",
             len(rewards), samples_path, summary["mean_reward"])
    return 0


def cmd_eval(args):
    t0 = time.perf_counter()
    samples = load_dataset(args.samples)
    train = load_dataset(args.train)
    for path, data in ((args.samples, samples), (args.train, train)):
        if data.rewards is None:
            raise DataError(f"{path}: needs a reward column for evaluation")
        if data.n == 0:
            raise DataError(f"{path}: no rows to evaluate")
    timings = {"load": time.perf_counter() - t0}
    outdir = _ensure_outdir(args.outdir)

    t0 = time.perf_counter()
    stats = {
        "samples": boxplot_stats(samples.rewards).to_dict(),
        "training": boxplot_stats(train.rewards).to_dict(),
        "beyond_distribution": beyond_distribution(samples.rewards, train.rewards),
    }
    grid, dens_s = kde(samples.rewards)
    dens_t = kde(train.rewards, grid=grid)[1]
    timings["eval"] = time.perf_counter() - t0

    stats_path = _outpath(outdir, "eval_stats.json")
    with open(stats_path, "w") as fh:
        json.dump(stats, fh, indent=2)
        fh.write("\n")
    dens_path = _outpath(outdir, "reward_density.csv")
    with open(dens_path, "w") as fh:
        fh.write("reward,density_samples,density_training\n")
        for g, a, b in zip(grid, dens_s, dens_t):
            fh.write(f"{format(g, '.17g')},{format(a, '.17g')},{format(b, '.17g')}\n")
    _archive_run(args, outdir, None, timings, [stats_path, dens_path])
    frac = stats["beyond_distribution"]["fraction_above_training_max"]
    log.info("%.1f%% of samples beat the best training reward", 100.0 * frac)
    return 0


def cmd_surrogate_fit(args):
    t0 = time.perf_counter()
    data = load_dataset(args.data)
    if data.rewards is None:
        raise DataError(f"{args.data}: needs a reward column to fit against")
    timings = {"load": time.perf_counter() - t0}

    t0 = time.perf_counter()
    ensemble, mse_history = fit_ensemble(data.X, data.rewards,
                                         n_trees=args.trees,
                                         max_depth=args.depth,
                                         shrinkage=args.shrinkage)
    timings["fit"] = time.perf_counter() - t0
    save_ensemble(args.out, ensemble)

    outdir = os.path.dirname(args.out) or "."
    report = {
        "n_rows": int(data.n),
        "n_trees": ensemble.n_trees,
        "max_depth": ensemble.max_depth,
        "shrinkage": ensemble.shrinkage,
        "train_mse_first": mse_history[0] if mse_history else None,
        "train_mse_last": mse_history[-1] if mse_history else None,
    }
    report_path = _outpath(outdir, "surrogate_fit.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    _archive_run(args, outdir, None, timings, [args.out, report_path])
    log.info("fitted %d trees; train MSE %s -> %s", ensemble.n_trees,
             report["train_mse_first"], report["train_mse_last"])
    return 0


def cmd_surrogate_eval(args):
    data = load_dataset(args.data)
    if data.rewards is None:
        raise DataError(f"{args.data}: needs a reward column to score against")
    ensemble = load_ensemble(args.model)
    if data.d != ensemble.d:
        raise DataError(f"{args.data}: {data.d} input columns, but the surrogate "
                        f"{args.model} takes {ensemble.d}")
    pred = predict_ensemble(ensemble, data.X)
    result = {
        "n_rows": int(data.n),
        "r2": r2_score(pred, data.rewards),
        "mse": float(np.mean((pred - data.rewards) ** 2)),
    }
    text = json.dumps(result, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_hull_eval(args):
    try:
        p = np.array([float(v) for v in args.params.split(",")], dtype=np.float64)
    except ValueError:
        p = None
    if p is None or p.shape != (N_PARAMS,):
        raise ConfigError(f"--params: expected {N_PARAMS} comma-separated numbers")
    dims = scale_params(p, args.loa)
    result = aggregate_total_resistance(dims).to_dict()
    text = json.dumps(result, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_hull_dataset(args):
    t0 = time.perf_counter()
    data = benchmark.hull_resistance_dataset(args.n, args.seed, loa=args.loa)
    save_samples(args.out, data.X, data.rewards)
    log.info("wrote %d labeled hulls to %s in %.1fs", args.n, args.out,
             time.perf_counter() - t0)
    return 0


def cmd_benchmark_make(args):
    data = benchmark.make_mixture_dataset(
        args.n, args.seed, reward=benchmark.default_benchmark_reward())
    save_samples(args.out, data.X, data.rewards)
    log.info("wrote %d benchmark rows to %s", args.n, args.out)
    return 0


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
    p.add_argument("--data", help="training CSV (overrides config dataset)")
    p.add_argument("--outdir", help="output directory (overrides config)")
    p.add_argument("--model-name", default="model.rddm")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=_count)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="reward-weighted fine-tuning of a model")
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--model", required=True, help="pretrained model file")
    p.add_argument("--outdir", help="output directory (overrides config)")
    p.add_argument("--model-name", default="model_ft.rddm")
    p.add_argument("--seed", type=_count)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("sample", help="draw guided or unguided samples")
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--model", required=True, help="model file to sample from")
    p.add_argument("--outdir", help="output directory (overrides config)")
    p.add_argument("--samples-name", default="samples.csv")
    p.add_argument("--M", type=int, help="candidates per step (1 = unguided)")
    p.add_argument("--alpha", type=float, help="selection temperature")
    p.add_argument("--n-traj", type=int, help="number of samples")
    p.add_argument("--seed", type=_count)
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
    q.add_argument("--loa", type=_length, default=80.0)
    q.add_argument("--out", help="optional JSON output path")
    q.set_defaults(func=cmd_hull_eval)
    q = hsub.add_parser("dataset", help="random labeled hulls for surrogate fitting")
    q.add_argument("--n", type=_count, default=5000)
    q.add_argument("--seed", type=_count, default=0)
    q.add_argument("--loa", type=_length, default=80.0)
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
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except ConfigError as e:
        log.error("config error: %s", e)
        return 1
    except (DataError, InfeasibleHullError, FileNotFoundError) as e:
        log.error("data error: %s", e)
        return 2
    except NumericalError as e:
        log.error("numerical failure: %s", e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
