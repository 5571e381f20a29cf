"""Benchmark entry point; run it from the root of the repository:

    python3 rddbench/run.py --workload mixture_svdd --seed 1 --seconds 20 --trace 0

rddkit is imported from ./src, so there is nothing to build. The run prints
a readable report and, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the gated end-to-end ones; with --trace 1 they are the
per-layer ones from a traced run. The full record, with the environment,
every reported metric and (when traced) the spans, is kept under
./.rddbench/<workload>-seed<seed>-trace<t>/.

BLAS runs on one thread. Two OpenBLAS threads on a two-core machine were
up to 8x slower whenever another process competed for a core, because idle
BLAS threads spin; one thread kept runs steady. Without ./src/rddkit the
run exits with code 2 and prints no result.
"""

import argparse
import json
import logging
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _single_thread_blas():
    """Must run before NumPy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_report(result):
    p = print
    p(f"rddbench {result['workload']} seed={result['seed']} seconds={result['seconds']} "
      f"trace={int(result['trace'])}: {len(result.get('setup_times_s', []))} set-ups, "
      f"{len(result.get('pass_walls_s', []))} timed untraced passes after a warm-up")
    p(f"  input size: {result['stated_size']}")
    p(f"  environment: {json.dumps(result['environment'], sort_keys=True)}")
    p(f"  output sha256: {result.get('output_sha256')}")
    title = "per-layer, per traced pass" if result["trace"] else "end-to-end, gated"
    p(f"  {title}:")
    for name, (value, unit) in result["metrics"].items():
        p(f"    {name:34s} {_fmt(value):>14s} {unit}")
    if result["trace"] and "traced_pass_wall_s" in result:
        wall = result["traced_pass_wall_s"]
        p(f"  self time by layer, per traced pass of {_fmt(wall)} s:")
        for layer, s in result["layer_self_s"].items():
            p(f"    {layer:34s} {_fmt(s):>14s} s  {100.0 * s / wall:5.1f} % of the pass")
        p(f"  Adam share of a training step: {100.0 * result['adam_share_of_training_step']:.1f} %")
        m = result["metrics"]
        calls = m.get("denoiser.predict_calls", (0.0, ""))[0]
        if calls:
            p(f"  per predict_noise call, computed from layer shapes (not measured): "
              f"{1e3 * m['denoiser.predict_gflop'][0] / calls:.4g} MFLOP, "
              f"{1e3 * m['denoiser.predict_gbytes'][0] / calls:.4g} MB moved; achieved "
              f"{m['denoiser.predict_gflops_per_s'][0]:.4g} GFLOP/s (no roofline: peak "
              f"compute and bandwidth are not measured)")
        p(f"  absent (wrapped name missing): {', '.join(result['absent']) or 'none'}")
    else:
        p("  end-to-end, reported:")
        for name, (value, unit) in result["report"].items():
            p(f"    {name:34s} {_fmt(value):>14s} {unit}")
    p(f"  operations: {result['attempted']} attempted, {result['failed']} failed")
    for failure in result["failures"]:
        p(f"    {failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="rddkit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rddkit", "__init__.py")):
        print(f"rddbench: no rddkit sources under {SRC}", file=sys.stderr)
        return 2
    _single_thread_blas()
    sys.path.insert(0, SRC)
    import harness
    import rddkit
    from workloads import WORKLOADS

    if not os.path.abspath(rddkit.__file__).startswith(SRC + os.sep):
        print(f"rddbench: rddkit imported from {rddkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    logging.getLogger("rddkit").setLevel(logging.WARNING)

    workdir = os.path.join(ROOT, ".rddbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    result = harness.run_workload(args.workload, args.seed, args.seconds, args.trace, workdir)
    result["environment"] = harness.environment(ROOT, args.seed)
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for sub in ("setup", "pass"):
        shutil.rmtree(os.path.join(workdir, sub), ignore_errors=True)

    _print_report(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
