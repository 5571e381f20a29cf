"""Tiny-size smoke test of the benchmark harness.

Runs every workload at TINY sizes in-process, untraced and traced, and
checks that each emits every metric named for it, that its outputs pass
their checks, and that the traced run completes with consistent spans.
Run it with ``PYTHONPATH=src python -m pytest rddbench``.
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import rddkit.hull  # noqa: E402
import rddkit.sampler  # noqa: E402
import tracing  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

# the end-to-end metrics each workload reports, gated or not
NAMED = {
    "mixture_svdd": ["svdd_traj_per_s", "guided_mean_reward", "frac_above_train_max"],
    "mixture_train": ["train_rows_per_s", "finetune_iters_per_s", "pretrain_final_loss",
                      "finetune_reward_gain"],
    "hull_design": ["svdd_traj_per_s", "hull_designs_per_s", "surrogate_fit_s",
                    "guided_mean_reward", "surrogate_r2", "physics_verified_gain"],
}

# per traced pass: (layers that must show work, layers that must show none)
STRESSED = {
    "mixture_svdd": (["denoiser.predict_calls", "sampler.candidates", "metrics.s"],
                     ["denoiser.adam_calls", "hull.designs", "trees.predict_rows"]),
    "mixture_train": (["denoiser.adam_calls", "pretrain.steps", "finetune.rollin_rows"],
                      ["sampler.candidates", "hull.designs", "trees.predict_rows"]),
    "hull_design": (["hull.designs", "hull.michell_cells", "trees.predict_rows",
                     "sampler.candidates"],
                    ["denoiser.adam_calls", "finetune.rollin_rows"]),
}


def _per_layer_names():
    names = {name: unit for name, unit, _, _ in tracing.METRIC_SPECS}
    names.update({name: "count" for name, _, _ in harness.WARNING_COUNTS})
    names["trace.overhead_ratio"] = "ratio"
    return names


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == _per_layer_names()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_metric(name, tmp_path):
    result = harness.run_workload(name, seed=3, seconds=0, trace=0,
                                  workdir=str(tmp_path), sizes=TINY)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {k: u for k, (_, u) in result["metrics"].items()} == harness.END_TO_END
    assert all(v > 0 for v, _ in result["metrics"].values())
    for metric in NAMED[name] + ["error_rate"]:
        assert metric in result["report"], metric
    assert len(result["output_sha256"]) == 64


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_completes(name, tmp_path):
    original = rddkit.sampler.predict_noise
    result = harness.run_workload(name, seed=3, seconds=0, trace=1,
                                  workdir=str(tmp_path), sizes=TINY)
    assert result["correct"], result["failures"]
    assert result["absent"] == []
    assert {k: u for k, (_, u) in result["metrics"].items()} == _per_layer_names()
    busy, idle = STRESSED[name]
    for metric in busy:
        assert result["metrics"][metric][0] > 0, metric
    for metric in idle:
        assert result["metrics"][metric][0] == 0, metric
    assert os.path.getsize(tmp_path / "spans.jsonl") > 0
    assert rddkit.sampler.predict_noise is original


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(rddkit.hull, "michell_wave_resistance")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert "hull.michell" not in tracer.live
        values, absent = tracing.layer_metrics(tracing.SpanTable(tracer), tracer.live, passes=1)
    assert set(absent) == {"hull.michell_cells", "hull.michell_s"}
    assert "hull.designs" in values
