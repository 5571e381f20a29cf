"""Run one workload: set-up, measured passes, output checks and metrics.

One run sets up ``Sizes.setup_repeats`` times or more and reports the
median as ``setup_s``, then repeats the workload's pass until ``seconds``
would be exceeded (at least ``MIN_PASSES`` times) and reports medians over
the passes after the first. With ``trace``, untraced and traced passes
alternate; the per-layer metrics come from the traced passes and the ratio
of their median wall time to the untraced one is the tracing overhead.
End-to-end metrics always come from untraced passes.

Every stage call and every output check is one operation; a stage that
exits non-zero or raises, or a check that does not hold, is a failed one.
"""

import ctypes
import hashlib
import io
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from contextlib import nullcontext, redirect_stdout

import numpy as np

import rddkit
from rddkit import cli

import tracing
from workloads import FULL, WORKLOADS

MIN_PASSES = 2   # the first is a warm-up
SETUP_SECONDS = 1.0
MAX_SETUPS = 20

# gated metrics: every workload reports each of them
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# warnings counted from outside; (per-layer metric, message test, count of one)
WARNING_COUNTS = (
    ("hull.quadrature_warnings", lambda m: m.startswith("Michell lambda-quadrature"),
     lambda m: 1),
    ("sampler.uniform_fallbacks", lambda m: "falling back to uniform selection" in m,
     lambda m: int(m.split()[0])),
    ("pretrain.no_decrease_warnings", lambda m: m.startswith("training did not reduce the loss"),
     lambda m: 1),
)


class StageFailed(Exception):
    """A stage failed; the rest of the pass depends on it and is skipped."""


class Ops:
    """Runs stages and checks, counting each as one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.warnings = Counter()
        self.tracer = None

    def _fail(self, message):
        self.failed += 1
        self.failures.append(message)

    def _run(self, label, span, fn):
        self.attempted += 1
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                with self.tracer.span(span) if self.tracer else nullcontext():
                    result = fn()
            except Exception as e:
                self._fail(f"{label}: raised {e!r}")
                traceback.print_exc(file=sys.stderr)
                raise StageFailed(label) from e
            finally:
                elapsed = time.perf_counter() - t0
                self._count_warnings(caught)
        return result, elapsed

    def _count_warnings(self, caught):
        for w in caught:
            msg = str(w.message)
            for name, matches, count in WARNING_COUNTS:
                if matches(msg):
                    self.warnings[name] += count(msg)
                    break
            else:
                self.warnings["other"] += 1

    def cli(self, label, argv):
        """One `rddkit` subcommand, in-process; returns its wall time."""
        code, elapsed = self._run(label, "cli.main", lambda: cli.main(argv))
        if code != 0:
            self._fail(f"{label}: exit code {code}")
            raise StageFailed(label)
        return elapsed

    def library(self, label, fn):
        """A library call where no subcommand exists; returns its wall time."""
        return self._run(label, "bench." + label.replace(" ", "_"), fn)[1]

    def check(self, label, ok):
        self.attempted += 1
        if not ok:
            self._fail(f"check failed: {label}")


class Pass:
    def __init__(self, times, cpu, digest, quality, warning_counts):
        self.times = times
        self.wall = sum(times.values())
        self.cpu = cpu
        self.digest = digest
        self.quality = quality
        self.warnings = warning_counts


def _one_pass(wl, ops, tracer=None, run_id=None):
    before = Counter(ops.warnings)
    cpu0 = time.process_time()
    if tracer is None:
        times = wl.run_pass(ops)
    else:
        tracer.run_id = run_id
        ops.tracer = tracer
        try:
            with tracing.installed(tracer), tracer.span("bench.pass"):
                times = wl.run_pass(ops)
        finally:
            ops.tracer = None
    cpu = time.process_time() - cpu0
    digest, quality = wl.check(ops)
    return Pass(times, cpu, digest, quality, ops.warnings - before)


def _passes(wl, ops, seconds, tracer=None):
    """Repeat the pass for about ``seconds``; returns (untraced, traced) passes.

    With a tracer, untraced and traced passes alternate, so a change in the
    machine's speed during the run affects both sides of the overhead ratio.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(_one_pass(wl, ops))
        last = plain[-1].wall
        if tracer is not None:
            traced.append(_one_pass(wl, ops, tracer, f"{wl.name}/pass{len(plain)}"))
            last += traced[-1].wall
        if len(plain) >= MIN_PASSES and time.perf_counter() - start + last > seconds:
            return plain, traced


def _median(values):
    return float(statistics.median(values))


def _openblas_threads():
    """Thread count reported by the OpenBLAS that NumPy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root, seed):
    """Where and on what a result was measured."""
    pkg = os.path.dirname(rddkit.__file__)
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def run_workload(name, seed, seconds, trace, workdir, sizes=FULL):
    """Set up and measure one workload; returns the full result record."""
    wl = WORKLOADS[name](sizes, seed, workdir)
    ops = Ops()
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
              "stated_size": wl.stated_size(), "metrics": {}, "report": {}}
    plain, traced = [], []
    try:
        setup_times, setup_digests = [], []
        # a cheap set-up repeats until SETUP_SECONDS, so its median is as steady
        while len(setup_times) < sizes.setup_repeats or (
                sum(setup_times) < SETUP_SECONDS and len(setup_times) < MAX_SETUPS):
            t0 = time.perf_counter()
            setup_digests.append(wl.setup(ops))
            setup_times.append(time.perf_counter() - t0)
        ops.check("set-up output identical on every repeat", len(set(setup_digests)) == 1)
        result["setup_times_s"] = setup_times
        tracer = tracing.Tracer() if trace else None
        plain, traced = _passes(wl, ops, seconds, tracer)
        for k, p in enumerate(plain[1:] + traced, start=1):
            ops.check(f"pass {k} output identical to pass 0", p.digest == plain[0].digest)
    except StageFailed:
        pass

    if plain:
        first = plain[0]
        # the first pass warms caches and lazy set-up and runs slower: untimed
        timed = plain[1:] or plain
        result["output_sha256"] = first.digest
        result["warmup_wall_s"] = first.wall
        result["pass_walls_s"] = [p.wall for p in timed]
        # process CPU time of a whole pass; wall above it is time the
        # process waited, for instance while the machine ran something else
        report = {"pass_cpu_s": (_median([p.cpu for p in timed]), "s")}
        for stage in first.times:
            report[f"stage.{stage}_s"] = (_median([p.times[stage] for p in timed]), "s")
        per_pass = [wl.throughput(p.times) for p in timed]
        for metric, (_, unit) in per_pass[0].items():
            report[metric] = (_median([t[metric][0] for t in per_pass]), unit)
        report.update(first.quality)
        result["report"] = report
        if trace and traced:
            result["metrics"], extras = _layer_metrics(ops, timed, traced, tracer)
            result.update(extras)
            tracer.write_jsonl(os.path.join(workdir, "spans.jsonl"))
        else:
            values = {
                "setup_s": _median(setup_times),
                "wall_s": _median(result["pass_walls_s"]),
                # ru_maxrss is in KiB on Linux
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            result["metrics"] = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    result["attempted"] = ops.attempted
    result["failed"] = ops.failed
    result["failures"] = ops.failures
    result["report"]["error_rate"] = (ops.failed / max(1, ops.attempted), "failed/attempted")
    result["correct"] = ops.failed == 0 and bool(plain) and (bool(traced) or not trace)
    return result


def _layer_metrics(ops, plain, traced, tracer):
    table = tracing.SpanTable(tracer)
    values, absent = tracing.layer_metrics(table, tracer.live, len(traced))
    for name, _, _ in WARNING_COUNTS:
        values[name] = (sum(p.warnings[name] for p in traced) / len(traced), "count")
    values["trace.overhead_ratio"] = (
        _median([p.wall for p in traced]) / _median([p.wall for p in plain]), "ratio")
    ops.check("traced spans nest inside their parents", table.nesting_errors() == 0)
    roots = table.parent < 0
    ops.check("self times add up to the root spans",
              abs(table.self_time.sum() - table.dur[roots].sum()) <= 1e-9 * len(table.dur))
    n = len(traced)
    epochs = table.outermost(["pretrain.epoch"])
    extras = {
        "absent": absent,
        "traced_pass_wall_s": float(table.dur[table.select(["bench.pass"])].sum()) / n,
        "layer_self_s": {
            layer: float(table.self_time[table.select(table.layer_names(layer))].sum()) / n
            for layer in sorted({name.split(".")[0] for name in table.names})},
        # Adam's part of a training step, over pretraining and fine-tuning epochs
        "adam_share_of_training_step": tracing.share(
            float(table.dur[table.select(["denoiser.adam"], ["pretrain.epoch"])].sum()),
            float(table.dur[epochs].sum())),
    }
    return dict(sorted(values.items())), extras
