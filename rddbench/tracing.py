"""Span tracing installed from outside the library, and the per-layer metrics.

Every public call the benchmark wants to see is wrapped by replacing the
name in the module that calls it (``rddkit.sampler.predict_noise``,
``rddkit.pretrain.adam_step``, ...) or, for reward models, the ``batch``
method on the class. A wrapper records one span: its name, start, end, the
span open when it started (its parent) and the id of the benchmark pass it
belongs to. Spans stay in memory and are written out when the run ends.

A layer is a module of rddkit; a span's layer is the part of its name before
the dot. A span's self time is its duration minus the durations of its
direct children, so self time plus child time equals parent time at every
boundary, and the self times of all spans add up to the root spans.

A target whose name no longer exists is skipped, and the metrics that read
its spans are reported as absent rather than failing the run.
"""

import functools
import importlib
import json
import time
from contextlib import contextmanager

import numpy as np


def _rows(arg_index):
    def count(args, kwargs, result):
        X = np.asarray(args[arg_index])
        return {"rows": int(X.shape[0]) if X.ndim > 1 else 1}
    return count


def _result_rows(args, kwargs, result):
    return {"rows": int(result.n)}


def _predict_counts(args, kwargs, result):
    """Computed kernel counts of one predict_noise call.

    FLOPs: 2*n*fan_in*fan_out per matmul plus n*fan_out per bias add (tanh
    is not counted as a FLOP). Bytes moved: every NumPy operation of the
    forward pass reads its float64 operands once and writes its result once
    (embedding concat, matmul, bias add, tanh). Neither is measured.
    """
    params, X = args[0], np.asarray(args[1])
    n = X.shape[0] if X.ndim > 1 else 1
    flop = 0.0
    words = 2.0 * n * params.layer_weights[0].shape[0]   # concat read + write
    last = len(params.layer_weights) - 1
    for i, W in enumerate(params.layer_weights):
        fan_in, fan_out = W.shape
        flop += 2.0 * n * fan_in * fan_out + n * fan_out
        words += n * fan_in + fan_in * fan_out + n * fan_out   # matmul
        words += 2.0 * n * fan_out + fan_out                    # bias add
        if i < last:
            words += 2.0 * n * fan_out                          # tanh
    return {"rows": n, "gflop": flop / 1e9, "gbytes": 8.0 * words / 1e9}


# (module, attribute, span name, counter). The module is the caller: the
# wrapper replaces the name it looks up. Several rows may share a span name.
FUNCTION_TARGETS = [
    ("rddkit.sampler", "predict_noise", "denoiser.predict", _predict_counts),
    ("rddkit.pretrain", "loss_and_grad_arrays", "denoiser.loss_grad", _rows(2)),
    ("rddkit.pretrain", "adam_step", "denoiser.adam", None),
    ("rddkit.cli", "save_model", "denoiser.io", None),
    ("rddkit.cli", "load_model", "denoiser.io", None),
    ("rddkit.cli", "train_ddpm", "pretrain.train", None),
    ("rddkit.pretrain", "ddpm_epoch", "pretrain.epoch", None),
    ("rddkit.finetune", "ddpm_epoch", "pretrain.epoch", None),
    ("rddkit.cli", "finetune", "finetune.run", None),
    ("rddkit.finetune", "rollin_collect", "finetune.rollin", None),
    ("rddkit.finetune", "weighted_epoch", "finetune.epoch", None),
    ("rddkit.cli", "svdd_generate", "sampler.generate", None),
    ("rddkit.sampler", "_reverse_chain", "sampler.chain", None),
    ("rddkit.finetune", "_reverse_chain", "sampler.chain", None),
    ("rddkit.pretrain", "_reverse_chain", "sampler.chain", None),
    ("rddkit.sampler", "reverse_step", "diffusion.reverse_step", None),
    ("rddkit.sampler", "posterior_mean_x0", "diffusion.posterior_mean", None),
    ("rddkit.denoiser", "forward_marginal", "diffusion.forward_marginal", None),
    ("rddkit.cli", "fit_ensemble", "trees.fit", None),
    ("rddkit.cli", "predict_ensemble", "trees.predict", _rows(1)),
    # SurrogateReward imports predict_ensemble from rddkit.trees when built
    ("rddkit.trees", "predict_ensemble", "trees.predict", _rows(1)),
    ("rddkit.cli", "save_ensemble", "trees.io", None),
    ("rddkit.cli", "load_ensemble", "trees.io", None),
    ("rddkit.benchmark", "aggregate_total_resistance", "hull.design", None),
    # HullResistanceReward imports it from rddkit.hull at call time
    ("rddkit.hull", "aggregate_total_resistance", "hull.design", None),
    ("rddkit.hull", "michell_wave_resistance", "hull.michell", None),
    ("rddkit.hull", "wetted_surface_area", "hull.wetted", None),
    ("rddkit.cli", "load_dataset", "data.read", _result_rows),
    ("rddkit.cli", "save_samples", "data.write", _rows(1)),
    ("rddkit.cli", "boxplot_stats", "metrics.boxplot", None),
    ("rddkit.cli", "beyond_distribution", "metrics.beyond", None),
    ("rddkit.cli", "kde", "metrics.kde", None),
]

# (module, class, method, span name, counter); only methods the class
# defines itself are wrapped, so inherited ones are not wrapped twice
METHOD_TARGETS = [
    ("rddkit.rewards", "RewardModel", "batch", "rewards.batch", _rows(1)),
    ("rddkit.rewards", "SyntheticTargetReward", "batch", "rewards.batch", _rows(1)),
    ("rddkit.rewards", "SurrogateReward", "batch", "rewards.batch", _rows(1)),
]



class Tracer:
    """In-memory span log of one run; spans nest because the run is serial."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self.run = []
        self.rows = []
        self.counters = {}
        self.run_id = None   # the benchmark pass that new spans belong to
        self.live = set()   # span names with an installed target
        self._stack = []

    def _open(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.rows.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    if key == "rows":
                        self.rows[idx] = value
                    else:
                        self.counters[(name, key)] = self.counters.get((name, key), 0.0) + value
            return result
        return traced

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.name_id[i]],
                    "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "run": self.run[i],
                    "rows": self.rows[i],
                }) + "\n")


@contextmanager
def installed(tracer):
    """Install every wrapper for the duration of the block.

    Records in ``tracer.live`` the span names that have at least one
    installed target; every original is put back on exit.
    """
    saved = []
    live = {"cli.main"}   # opened by the benchmark around each subcommand
    try:
        for modname, attr, name, count in FUNCTION_TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                continue
            saved.append((mod, attr, fn))
            setattr(mod, attr, tracer.wrap(name, fn, count))
            live.add(name)
        for modname, clsname, attr, name, count in METHOD_TARGETS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            fn = vars(cls).get(attr) if cls is not None else None
            if not callable(fn):
                continue
            saved.append((cls, attr, fn))
            setattr(cls, attr, tracer.wrap(name, fn, count))
            live.add(name)
        tracer.live = live
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


class SpanTable:
    """Array view of a tracer's spans with the queries the metrics need."""

    def __init__(self, tracer):
        self.names = list(tracer.names)
        self.name_id = np.array(tracer.name_id, dtype=np.int64)
        start = np.array(tracer.start)
        end = np.array(tracer.end)
        self.start, self.end = start, end
        self.dur = end - start
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.rows = np.array(tracer.rows, dtype=np.float64)
        self.counters = dict(tracer.counters)
        n = len(self.dur)
        child = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        # bit mask of the names of every ancestor; parents precede children
        if len(self.names) > 62:
            raise ValueError("too many span names for an int64 ancestor mask")
        masks = [0] * n
        for i, p in enumerate(tracer.parent):
            if p >= 0:
                masks[i] = masks[p] | (1 << tracer.name_id[p])
        self.ancestors = np.array(masks, dtype=np.int64)

    def _bits(self, names):
        bits = 0
        for name in names:
            if name in self.names:
                bits |= 1 << self.names.index(name)
        return bits

    def layer_names(self, layer):
        return [n for n in self.names if n.split(".")[0] == layer]

    def select(self, names, under=()):
        """Mask of spans named in ``names`` with an ancestor named in ``under``."""
        ids = [self.names.index(n) for n in names if n in self.names]
        mask = np.isin(self.name_id, ids)
        if under:
            bits = self._bits(under)
            mask &= (self.ancestors & bits) != 0
        return mask

    def outermost(self, names):
        """Mask of spans named in ``names`` with no ancestor of those names."""
        bits = self._bits(names)
        mask = self.select(names)
        mask &= (self.ancestors & bits) == 0
        return mask

    def nesting_errors(self, tol=1e-9):
        """Spans whose children fall outside them or overlap each other."""
        bad = 0
        kids = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                kids.setdefault(int(p), []).append(i)
        for p, ks in kids.items():
            prev_end = self.start[p]
            for k in ks:
                if self.start[k] < prev_end - tol or self.end[k] > self.end[p] + tol:
                    bad += 1
                prev_end = self.end[k]
        return bad


def share(part, whole):
    return part / whole if whole > 0 else 0.0


# per-layer metric: (name, unit, span names it reads, value from the table).
# Values are totals over the traced passes; the harness divides by the pass
# count except for shares and rates.
def _metric_specs():
    def total(names, under=()):
        return lambda t: float(t.dur[t.select(names, under)].sum())

    def calls(names, under=()):
        return lambda t: float(t.select(names, under).sum())

    def rows(names, under=()):
        return lambda t: float(t.rows[t.select(names, under)].sum())

    def counter(name, key):
        return lambda t: float(t.counters.get((name, key), 0.0))

    def layer_self(layer):
        return lambda t: float(t.self_time[t.select(t.layer_names(layer))].sum())

    def sampler_share(inner):
        def value(t):
            outer = t.layer_names("sampler")
            whole = t.dur[t.outermost(outer)].sum()
            return share(float(t.dur[t.select([inner], outer)].sum()), whole)
        return value

    def gflops_per_s(t):
        return share(counter("denoiser.predict", "gflop")(t), total(["denoiser.predict"])(t))

    predict, diff = ["denoiser.predict"], ["diffusion.reverse_step", "diffusion.posterior_mean",
                                          "diffusion.forward_marginal"]
    sampler = ["sampler.generate", "sampler.chain"]
    return [
        ("denoiser.predict_calls", "count", predict, calls(predict)),
        ("denoiser.predict_rows", "count", predict, rows(predict)),
        ("denoiser.predict_s", "s", predict, total(predict)),
        ("denoiser.predict_gflop", "GFLOP", predict, counter("denoiser.predict", "gflop")),
        ("denoiser.predict_gbytes", "GB", predict, counter("denoiser.predict", "gbytes")),
        ("denoiser.predict_gflops_per_s", "GFLOP/s", predict, gflops_per_s),
        ("denoiser.loss_grad_calls", "count", ["denoiser.loss_grad"], calls(["denoiser.loss_grad"])),
        ("denoiser.loss_grad_s", "s", ["denoiser.loss_grad"], total(["denoiser.loss_grad"])),
        ("denoiser.adam_calls", "count", ["denoiser.adam"], calls(["denoiser.adam"])),
        ("denoiser.adam_s", "s", ["denoiser.adam"], total(["denoiser.adam"])),
        ("denoiser.io_s", "s", ["denoiser.io"], total(["denoiser.io"])),
        ("pretrain.steps", "count", ["pretrain.epoch", "denoiser.loss_grad"],
         calls(["denoiser.loss_grad"], ["pretrain.epoch"])),
        ("pretrain.self_s", "s", ["pretrain.train", "pretrain.epoch"], layer_self("pretrain")),
        ("finetune.rollin_s", "s", ["finetune.rollin"], total(["finetune.rollin"])),
        ("finetune.rollin_rows", "count", ["finetune.rollin"] + predict,
         rows(predict, ["finetune.rollin"])),
        ("finetune.epoch_s", "s", ["finetune.epoch"], total(["finetune.epoch"])),
        ("finetune.self_s", "s", ["finetune.run", "finetune.rollin", "finetune.epoch"],
         layer_self("finetune")),
        ("sampler.candidates", "count", ["sampler.chain", "rewards.batch"],
         rows(["rewards.batch"], ["sampler.chain"])),
        ("sampler.self_s", "s", sampler, layer_self("sampler")),
        ("sampler.network_share", "ratio", sampler + predict, sampler_share("denoiser.predict")),
        ("sampler.reward_share", "ratio", sampler + ["rewards.batch"], sampler_share("rewards.batch")),
        ("diffusion.calls", "count", diff, calls(diff)),
        ("diffusion.s", "s", diff, total(diff)),
        ("rewards.calls", "count", ["rewards.batch"], calls(["rewards.batch"])),
        ("rewards.rows", "count", ["rewards.batch"], rows(["rewards.batch"])),
        ("rewards.s", "s", ["rewards.batch"], total(["rewards.batch"])),
        ("trees.fit_s", "s", ["trees.fit"], total(["trees.fit"])),
        ("trees.predict_rows", "count", ["trees.predict"], rows(["trees.predict"])),
        ("trees.predict_s", "s", ["trees.predict"], total(["trees.predict"])),
        ("trees.io_s", "s", ["trees.io"], total(["trees.io"])),
        ("hull.designs", "count", ["hull.design"], calls(["hull.design"])),
        ("hull.s", "s", ["hull.design"], total(["hull.design"])),
        ("hull.michell_cells", "count", ["hull.michell"], calls(["hull.michell"])),
        ("hull.michell_s", "s", ["hull.michell"], total(["hull.michell"])),
        ("hull.wetted_calls", "count", ["hull.wetted"], calls(["hull.wetted"])),
        ("hull.wetted_s", "s", ["hull.wetted"], total(["hull.wetted"])),
        ("data.rows_read", "count", ["data.read"], rows(["data.read"])),
        ("data.rows_written", "count", ["data.write"], rows(["data.write"])),
        ("data.s", "s", ["data.read", "data.write"], total(["data.read", "data.write"])),
        ("metrics.s", "s", ["metrics.boxplot", "metrics.beyond", "metrics.kde"],
         total(["metrics.boxplot", "metrics.beyond", "metrics.kde"])),
        ("cli.self_s", "s", ["cli.main"], layer_self("cli")),
    ]


METRIC_SPECS = _metric_specs()
# values that are already ratios, not totals to divide by the pass count
RATIO_METRICS = {"sampler.network_share", "sampler.reward_share", "denoiser.predict_gflops_per_s"}


def layer_metrics(table, live, passes):
    """Per-pass per-layer values; metrics reading a missing span are absent."""
    values, absent = {}, []
    for name, unit, needs, fn in METRIC_SPECS:
        if not set(needs) <= live:
            absent.append(name)
            continue
        value = fn(table)
        values[name] = (value if name in RATIO_METRICS else value / passes, unit)
    return values, absent
