import argparse
import dataclasses
import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from rddkit import cli
from rddkit import config as cfgmod
from rddkit import rewards as rewardmod
from rddkit import trees
from rddkit.data import NormStats, load_dataset, write_binary
from rddkit.denoiser import DenoiserParams, init_params, layer_views, load_model, save_model
from rddkit.diffusion import NoiseSchedule, make_schedule
from rddkit.exceptions import ConfigError, DataError
from rddkit.hull import ResistanceResult
from rddkit.trees import fit_ensemble, save_ensemble


# ------------------------------------------------------------------- config

def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def write_model(path):
    """A small untrained 2-d model file."""
    params = init_params(2, cfgmod.NetSection(embed_dim=4, hidden_dims=[8]),
                         make_schedule(10, 1e-4, 0.02), 0)
    save_model(str(path), params)
    return path


def stored_schedule(T, beta_start, beta_end):
    """A NoiseSchedule holding only the T and end betas that save_model
    writes, for model files whose schedule make_schedule rejects."""
    return NoiseSchedule(T, beta_start, beta_end, None, None, None, None)


def v1_model_bytes(params, last_bias_len=None):
    """The retired version-1 model layout: per-layer shape records, no checksum."""
    n = len(params.hidden_dims)
    parts = [b"RDDM", struct.pack("<IIII", 1, params.d, params.embed_dim, n),
             struct.pack(f"<{n}I", *params.hidden_dims), struct.pack("<II", 1, 10),
             struct.pack("<dd", 1e-4, 0.02), b"\x00", struct.pack("<I", n + 1)]
    for i, (W, b) in enumerate(layer_views(params, params.theta)):
        if i == n and last_bias_len is not None:
            b = b[:last_bias_len]
        parts += [struct.pack("<II", *W.shape), W.tobytes(), struct.pack("<I", b.size),
                  b.tobytes()]
    return b"".join(parts)


def test_empty_config_is_all_defaults(tmp_path):
    cfg = cfgmod.parse_config(write_json(tmp_path / "c.json", {}))
    assert cfg == cfgmod.validate(cfgmod.RunConfig())
    assert cfg.schedule.T == 100
    assert cfg.svdd.M == 5
    assert cfg.reward.kind == "synthetic"


def test_config_round_trip(tmp_path):
    cfg = cfgmod.RunConfig()
    cfg.schedule.T = 42
    cfg.net.hidden_dims = [64, 32]
    cfg.finetune.kl_anchor = False
    cfg.reward.target = [1.0, 0.5]
    cfg.dataset = "train.csv"
    path = tmp_path / "cfg.json"
    cli._write_json(path, cfg)
    back = cfgmod.parse_config(str(path))
    assert back == cfg
    # the archived file carries every field, defaults included
    raw = json.loads(path.read_text())
    assert raw == dataclasses.asdict(cfg)
    assert raw["pretrain"]["epochs"] == 200


def test_unknown_keys_are_rejected_with_paths(tmp_path):
    with pytest.raises(ConfigError, match="wat: unknown key"):
        cfgmod.parse_config(write_json(tmp_path / "a.json", {"wat": 1}))
    with pytest.raises(ConfigError, match=r"svdd\.M0: unknown key"):
        cfgmod.parse_config(write_json(tmp_path / "b.json", {"svdd": {"M0": 1}}))
    with pytest.raises(ConfigError, match=r"schedule\.TT: unknown key"):
        cfgmod.parse_config(write_json(tmp_path / "c.json", {"schedule": {"TT": 5}}))
    with pytest.raises(ConfigError, match=r"reward\.alpha: unknown key"):
        cfgmod.parse_config(write_json(tmp_path / "d.json", {"reward": {"alpha": 0.3}}))
    # keys that had one allowed value, set to that value in an old config
    with pytest.raises(ConfigError, match=r"schedule\.kind: unknown key"):
        cfgmod.parse_config(write_json(tmp_path / "e.json", {"schedule": {"kind": "linear"}}))
    with pytest.raises(ConfigError, match=r"net\.activation: unknown key"):
        cfgmod.parse_config(write_json(tmp_path / "f.json", {"net": {"activation": "tanh"}}))
    # a constant the soft weights cancel
    with pytest.raises(ConfigError, match=r"reward\.offset: unknown key"):
        cfgmod.parse_config(write_json(tmp_path / "g.json", {"reward": {"offset": 0.0}}))


def test_type_errors_name_the_key(tmp_path):
    cases = [
        ({"schedule": {"T": 1.5}}, "expected an integer"),
        ({"schedule": {"T": True}}, "expected an integer"),
        ({"schedule": {"beta_start": "tiny"}}, "expected a number"),
        ({"reward": {"kind": 3}}, "expected a string"),
        ({"finetune": {"kl_anchor": 1}}, "expected true/false"),
        ({"schedule": 5}, "expected an object"),
        ({"reward": {"surrogate_path": 5}}, r"reward\.surrogate_path: expected a string"),
        ({"dataset": 7}, r"dataset: expected a string"),
        ({"net": {"hidden_dims": 5}}, r"net\.hidden_dims: expected a list"),
        ({"net": {"hidden_dims": ["a"]}}, r"net\.hidden_dims: expected a non-empty list"),
        ({"net": {"hidden_dims": [2.5]}}, r"net\.hidden_dims: expected a non-empty list"),
        ({"net": {"hidden_dims": [True]}}, r"net\.hidden_dims: expected a non-empty list"),
        ({"net": {"hidden_dims": []}}, r"net\.hidden_dims: expected a non-empty list"),
        # JSON's NaN and Infinity literals pass the type check and every range comparison
        ({"svdd": {"alpha": float("nan")}, "pretrain": {"learning_rate": float("nan")}},
         r"pretrain\.learning_rate: must be finite"),
        ({"svdd": {"alpha": float("nan")}}, r"svdd\.alpha: must be finite"),
        ({"svdd": {"alpha": float("inf")}}, r"svdd\.alpha: must be finite"),
        ({"schedule": {"beta_end": float("nan")}}, r"schedule\.beta_end: must be finite"),
        ({"finetune": {"gamma": float("-inf")}}, r"finetune\.gamma: must be finite"),
        ({"reward": {"loa": float("inf")}}, r"reward\.loa: must be finite"),
        ({"reward": {"target": [float("nan"), 0.0]}}, r"reward\.target: must be finite"),
        ({"reward": {"target": [float("inf"), 0.0]}}, r"reward\.target: must be finite"),
    ]
    for i, (obj, msg) in enumerate(cases):
        with pytest.raises(ConfigError, match=msg):
            cfgmod.parse_config(write_json(tmp_path / f"t{i}.json", obj))


def test_validate_cross_field_errors():
    def broken(**kw):
        cfg = cfgmod.RunConfig()
        for dotted, value in kw.items():
            section, key = dotted.split("__")
            setattr(getattr(cfg, section), key, value)
        return cfg

    cases = [
        (broken(schedule__T=0), r"schedule\.T"),
        (broken(schedule__T=10_001), r"schedule\.T: must lie in \[1, 10000\], got 10001"),
        (broken(schedule__beta_end=1.5), r"schedule\.beta"),
        (broken(schedule__beta_start=0.05, schedule__beta_end=0.02), r"schedule\.beta_start"),
        (broken(net__embed_dim=7), r"net\.embed_dim"),
        (broken(pretrain__learning_rate=0.0), r"pretrain\.learning_rate"),
        (broken(finetune__m=1), r"finetune\.m"),
        (broken(finetune__alpha=0.0), r"finetune\.alpha"),
        (broken(svdd__M=0), r"svdd\.M"),
        (broken(svdd__n_traj=0), r"svdd\.n_traj"),
        (broken(reward__kind="oracle"), r"reward\.kind"),
        (broken(reward__target=["a"]), r"reward\.target"),
        (broken(reward__kind="surrogate"), r"reward\.surrogate_path"),
        (broken(reward__kind="airfoil", reward__surrogate_path="a.rddt",
                reward__lambda_range=-5.0), r"reward\.lambda_range"),
        (broken(reward__kind="airfoil", reward__surrogate_path="a.rddt",
                reward__lambda_intersect=-1.0), r"reward\.lambda_intersect"),
        (broken(finetune__anchor_kappa=-0.01), r"finetune\.anchor_kappa: must be >= 0"),
        (broken(reward__kind="hull", reward__scale=0.0), r"reward\.scale: must be > 0"),
        (broken(reward__kind="hull", reward__scale=-1e-6), r"reward\.scale: must be > 0"),
        (broken(reward__kind="hull", reward__loa=0.001), r"reward\.loa: must lie in \[0\.1, "),
        (broken(reward__kind="hull", reward__loa=1e300), r"reward\.loa: must lie in \[0\.1, "),
    ]
    for cfg, pattern in cases:
        with pytest.raises(ConfigError, match=pattern):
            cfgmod.validate(cfg)


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        cfgmod.parse_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        cfgmod.parse_config(str(bad))
    # bytes that are not UTF-8, whatever the locale, and a path that is not a
    # file are config errors naming the file
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff{}")
    with pytest.raises(ConfigError, match=re.escape(f"{not_utf8}: not UTF-8 text")):
        cfgmod.parse_config(str(not_utf8))
    with pytest.raises(ConfigError, match=re.escape(f"{tmp_path}: cannot read the config")):
        cfgmod.parse_config(str(tmp_path))
    # nesting deeper than the JSON decoder recurses is a config error too,
    # also through the CLI (exit 1), never a RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ConfigError, match=re.escape(f"{deep}: invalid JSON (nested too deeply)")):
        cfgmod.parse_config(str(deep))
    assert cli.main(["sample", "--config", str(deep), "--model", "none.rddm",
                     "--outdir", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------- cli

def test_usage_errors_exit_1(tmp_path, caplog, capsys):
    assert cli.main([]) == 1
    assert cli.main(["not-a-command"]) == 1
    assert cli.main(["--help"]) == 0
    # pretrain without any dataset is a configuration error
    assert cli.main(["pretrain", "--outdir", str(tmp_path)]) == 1
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"svdd": {"M0": 1}}))
    assert cli.main(["pretrain", "--config", str(bad_cfg), "--data", "x.csv",
                     "--outdir", str(tmp_path)]) == 1
    # schedule.T above config.MAX_T is refused before pretrain reads its data
    # or makes its output directory; epochs 0 keeps a run that went ahead short
    (tmp_path / "data.csv").write_text("x0,x1\n0.5,1.5\n1.0,-0.5\n0.2,0.3\n")
    big_T = write_json(tmp_path / "big_T.json",
                       {"schedule": {"T": 1_000_000}, "pretrain": {"epochs": 0}})
    caplog.clear()
    assert cli.main(["pretrain", "--config", big_T, "--data", str(tmp_path / "data.csv"),
                     "--outdir", str(tmp_path / "never")]) == 1
    assert "schedule.T" in caplog.text and not (tmp_path / "never").exists()
    # a synthetic target of the wrong length for the model
    model = write_model(tmp_path / "m.rddm")
    short = write_json(tmp_path / "short.json", {"reward": {"target": [1.0]}})
    for command in ("sample", "finetune"):
        caplog.clear()
        assert cli.main([command, "--config", short, "--model", str(model),
                         "--outdir", str(tmp_path)]) == 1
        assert "reward.target" in caplog.text
    # a surrogate over 3 inputs cannot steer the 2-d model
    rows = ["x0,x1,x2,reward"] + [f"{i * 0.1},{i * 0.3 % 1},{i * 0.7 % 1},{i % 3}"
                                  for i in range(12)]
    (tmp_path / "wide.csv").write_text("\n".join(rows) + "\n")
    ds = load_dataset(str(tmp_path / "wide.csv"))
    wide = str(tmp_path / "wide.rddt")
    save_ensemble(wide, fit_ensemble(ds.X, ds.rewards, n_trees=2, max_depth=2)[0])
    for kind in ("surrogate", "airfoil"):
        cfg = write_json(tmp_path / f"{kind}.json",
                         {"reward": {"kind": kind, "surrogate_path": wide}})
        for command in ("sample", "finetune"):
            caplog.clear()
            assert cli.main([command, "--config", cfg, "--model", str(model),
                             "--outdir", str(tmp_path)]) == 1
            assert "reward.surrogate_path" in caplog.text
    # hull rewards take 6 inputs and airfoil rewards 384, not the model's 2
    rows = ["x0,x1,reward"] + [f"{i * 0.1},{i * 0.3 % 1},{i % 3}" for i in range(12)]
    (tmp_path / "narrow.csv").write_text("\n".join(rows) + "\n")
    ds = load_dataset(str(tmp_path / "narrow.csv"))
    narrow = str(tmp_path / "narrow.rddt")
    save_ensemble(narrow, fit_ensemble(ds.X, ds.rewards, n_trees=2, max_depth=2)[0])
    for kind, width in (("hull", 6), ("airfoil", 384)):
        cfg = write_json(tmp_path / f"{kind}_width.json",
                         {"reward": {"kind": kind, "surrogate_path": narrow}})
        for command in ("sample", "finetune"):
            caplog.clear()
            assert cli.main([command, "--config", cfg, "--model", str(model),
                             "--outdir", str(tmp_path / "width")]) == 1
            assert f"reward.kind: '{kind}' rewards take {width} inputs, the model has 2" \
                in caplog.text
            assert not (tmp_path / "width").exists()
    # negative airfoil penalty weights would reward what they should penalise
    for key in ("lambda_range", "lambda_intersect"):
        cfg = write_json(tmp_path / f"{key}.json", {"reward": {
            "kind": "airfoil", "surrogate_path": narrow, key: -1.0}})
        caplog.clear()
        assert cli.main(["sample", "--config", cfg, "--model", str(model),
                         "--outdir", str(tmp_path / "negative")]) == 1
        assert f"reward.{key}: must be >= 0" in caplog.text
    # negative seeds: every --seed flag, and every section's seed key
    out = str(tmp_path / "out.csv")
    for argv in (["pretrain", "--data", "x.csv"], ["finetune", "--model", str(model)],
                 ["sample", "--model", str(model)], ["hull", "dataset", "--n", "2", "--out", out],
                 ["benchmark", "make", "--n", "2", "--out", out]):
        capsys.readouterr()
        outdir = ["--outdir", str(tmp_path)] if argv[0] in ("pretrain", "finetune", "sample") \
            else []
        assert cli.main(argv + outdir + ["--seed", "-1"]) == 1
        assert "--seed" in capsys.readouterr().err
    for section, argv in (("pretrain", ["pretrain", "--data", "x.csv"]),
                          ("finetune", ["finetune", "--model", str(model)]),
                          ("svdd", ["sample", "--model", str(model)])):
        cfg = write_json(tmp_path / f"seed_{section}.json", {section: {"seed": -1}})
        caplog.clear()
        assert cli.main(argv + ["--config", cfg, "--outdir", str(tmp_path)]) == 1
        assert f"{section}.seed" in caplog.text
    # negative counts, and tree settings the fit cannot use
    wide_csv = str(tmp_path / "wide.csv")
    fit = ["surrogate", "fit", "--data", wide_csv, "--out", str(tmp_path / "f.rddt")]
    for argv, flag in ((["hull", "dataset", "--n", "-1", "--out", out], "--n"),
                       (["benchmark", "make", "--n", "-1", "--out", out], "--n"),
                       (fit + ["--trees", "-1"], "--trees"),
                       (fit + ["--depth", "-1"], "--depth")):
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert flag in capsys.readouterr().err
    caplog.clear()
    assert cli.main(fit + ["--trees", "0"]) == 1
    assert "n_trees >= 1" in caplog.text
    assert not (tmp_path / "f.rddt").exists()
    for shrinkage in ("inf", "nan"):
        caplog.clear()
        assert cli.main(fit + ["--shrinkage", shrinkage]) == 1
        assert "finite shrinkage > 0" in caplog.text
        assert not (tmp_path / "f.rddt").exists()
    caplog.clear()
    assert cli.main(["hull", "eval", "--params", "a,b"]) == 1
    assert "--params" in caplog.text
    # a non-finite temperature, from a config file or from the command line
    nan_alpha = write_json(tmp_path / "nan_alpha.json", {"svdd": {"alpha": float("nan")}})
    for extra in (["--config", nan_alpha], ["--alpha", "nan"], ["--alpha", "inf"]):
        caplog.clear()
        assert cli.main(["sample", "--model", str(model), "--outdir", str(tmp_path / "nan"),
                         "--M", "2", "--n-traj", "2"] + extra) == 1
        assert "svdd.alpha: must be finite" in caplog.text
    assert not (tmp_path / "nan" / "sample_summary.json").exists()
    # a non-finite synthetic target, a list the float-field check does not see
    for i, value in enumerate((float("nan"), float("inf"))):
        target = write_json(tmp_path / f"target_{i}.json", {"reward": {"target": [value, 0.0]}})
        for command, extra in (("sample", ["--M", "2", "--n-traj", "2"]), ("finetune", [])):
            caplog.clear()
            assert cli.main([command, "--config", target, "--model", str(model),
                             "--outdir", str(tmp_path / "target")] + extra) == 1
            assert "reward.target: must be finite" in caplog.text
            assert not (tmp_path / "target").exists()
    # a hull length outside hull.LOA_RANGE
    for loa in (0.001, 1e300):
        short = write_json(tmp_path / "loa.json", {"reward": {"kind": "hull", "loa": loa}})
        caplog.clear()
        assert cli.main(["sample", "--config", short, "--model", str(model),
                         "--outdir", str(tmp_path / "loa")]) == 1
        assert "reward.loa: must lie in" in caplog.text
        assert not (tmp_path / "loa").exists()
    # flag overrides are validated before the output directory is made
    for flag, value in (("--M", "0"), ("--n-traj", "0"), ("--alpha", "-1")):
        assert cli.main(["sample", "--model", str(model), "--outdir", str(tmp_path / "never"),
                         flag, value]) == 1
        assert not (tmp_path / "never").exists()
    # a hull length must lie in hull.LOA_RANGE: below it the friction line
    # has no Reynolds number, above it the wave terms overflow. `hull
    # dataset` refuses it for an empty dataset as for a full one, writing no file
    hull = "0.5,0.25,0.12,0.08,0.5,0.75"
    for argv in (["hull", "eval", "--params", hull], ["hull", "dataset", "--n", "2", "--out", out],
                 ["hull", "dataset", "--n", "0", "--out", out]):
        for loa in ("nan", "-5", "inf", "0", "0.001", "0.05", "20000", "1e300"):
            capsys.readouterr()
            assert cli.main(argv + ["--loa", loa]) == 1
            err = capsys.readouterr().err
            assert "--loa" in err and "LOA must lie in" in err
            assert not os.path.exists(out)


def test_too_long_a_schedule_in_a_model_file_exits_2(tmp_path, caplog):
    # a model file whose stored T is 10^6, under a valid checksum, is refused
    # before any schedule table is allocated (they would take 32 MB)
    params = init_params(2, cfgmod.NetSection(embed_dim=4, hidden_dims=[8]),
                         make_schedule(10, 1e-4, 0.02), 0)
    path = str(tmp_path / "big_T.rddm")
    save_model(path, dataclasses.replace(params, sched=stored_schedule(1_000_000, 1e-4, 0.02)))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=r"bad noise schedule in the model file: schedule\.T"):
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    for argv in (["sample", "--model", path, "--n-traj", "2"], ["finetune", "--model", path]):
        caplog.clear()
        assert cli.main(argv + ["--outdir", str(tmp_path / "never")]) == 2
        assert f"{path}: bad noise schedule" in caplog.text
    assert not (tmp_path / "never").exists()


def test_inflated_surrogate_file_exits_2(tmp_path, caplog):
    # valid under its checksum: a 2,001-node comb splitting feature 0 at 1,000
    # distinct thresholds and 100 one-leaf trees, stored with max_depth 4. Its
    # bin tables would take 14 MB; it is refused before any is allocated
    comb = np.full(2001, -1, dtype="<i4")
    comb[0:2000:2] = 0
    thresholds = np.zeros(2001)
    thresholds[0:2000:2] = np.arange(1000.0)
    chunks = [struct.pack("<IIIdd", 1, 101, 4, 0.1, 0.0), struct.pack("<I", 2001),
              comb.tobytes(), thresholds.tobytes(), np.zeros(2001).tobytes()]
    chunks += [struct.pack("<I", 1), struct.pack("<i", -1), bytes(16)] * 100
    path = str(tmp_path / "comb.rddt")
    write_binary(path, trees._MAGIC, trees._FORMAT_VERSION, chunks)
    assert os.path.getsize(path) == 42_464
    tracemalloc.start()
    try:
        message = f"{path}: tree 0: deeper than the stored max_depth 4"
        with pytest.raises(DataError, match=re.escape(message)):
            trees.load_ensemble(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    (tmp_path / "one.csv").write_text("x0,reward\n0.5,1.0\n1.5,2.0\n")
    caplog.clear()
    argv = ["surrogate", "eval", "--model", path, "--data", str(tmp_path / "one.csv")]
    assert cli.main(argv) == 2
    assert f"{path}: tree 0: deeper" in caplog.text
    # 33 stumps within their depth, but at more distinct thresholds on one
    # feature than the 32 a fit chooses from
    chunks = [struct.pack("<IIIdd", 1, 33, 1, 0.1, 0.0)]
    for k in range(33):
        chunks += [struct.pack("<I", 3), np.array([0, -1, -1], "<i4").tobytes(),
                   np.array([k, 0.0, 0.0]).tobytes(), np.zeros(3).tobytes()]
    path = str(tmp_path / "wide.rddt")
    write_binary(path, trees._MAGIC, trees._FORMAT_VERSION, chunks)
    message = f"{path}: feature 0: more than 32 distinct split thresholds"
    with pytest.raises(DataError, match=re.escape(message)):
        trees.load_ensemble(path)


def test_data_errors_exit_2(tmp_path, caplog):
    # a missing dataset, and one normalization cannot use (it needs two rows),
    # fail before pretrain makes its output directory, naming the file
    for name, body in (("nope.csv", None), ("header_only.csv", "x0,x1\n"),
                       ("one_row.csv", "x0,x1\n0.5,1.5\n")):
        if body is not None:
            (tmp_path / name).write_text(body)
        outdir = tmp_path / f"out_{name}"
        caplog.clear()
        assert cli.main(["pretrain", "--data", str(tmp_path / name), "--epochs", "1",
                         "--outdir", str(outdir)]) == 2
        assert not outdir.exists()
        assert str(tmp_path / name) in caplog.text
    # a CSV that is not UTF-8, whatever the locale, and a model file given as a
    # CSV are data errors naming the file and line, before any output is made
    not_utf8 = tmp_path / "not_utf8.csv"
    not_utf8.write_bytes(b"x0,x1\n0.5,1.5\n\xff,1\n")
    model = write_model(tmp_path / "model.rddm")
    out = tmp_path / "out_bytes"
    for argv, where in (
            (["pretrain", "--data", str(not_utf8), "--outdir", str(out)], f"{not_utf8}: line 3:"),
            (["pretrain", "--data", str(model), "--outdir", str(out)], f"{model}: line "),
            (["eval", "--samples", str(model), "--train", str(not_utf8), "--outdir", str(out)],
             f"{model}: line "),
            (["surrogate", "fit", "--data", str(model), "--out", str(out / "s.rddt")],
             f"{model}: line ")):
        caplog.clear()
        assert cli.main(argv) == 2
        assert where in caplog.text and "not UTF-8 text" in caplog.text
        assert not out.exists()
    # a hull outside the feasible cube, below its 1e-3 floor, with tapers
    # longer than the hull or with a NaN parameter is a data problem, not a crash
    for params in ("1.5,0.25,0.12,0.08,0.5,0.75", "0.0005,0.25,0.12,0.08,0.5,0.75",
                   "0.5,0.5000000000001,0.12,0.08,0.5,0.75", "nan,0.25,0.12,0.08,0.5,0.75"):
        assert cli.main(["hull", "eval", "--params", params]) == 2
    # reward-free samples cannot be evaluated
    plain = tmp_path / "plain.csv"
    plain.write_text("x0,x1\n0.0,1.0\n1.0,0.0\n")
    assert cli.main(["eval", "--samples", str(plain), "--train", str(plain),
                     "--outdir", str(tmp_path / "never")]) == 2
    assert not (tmp_path / "never").exists()
    # an empty samples or training file names itself
    empty = tmp_path / "empty.csv"
    empty.write_text("x0,x1,reward\n")
    labelled = tmp_path / "two.csv"
    labelled.write_text("x0,x1,reward\n0.0,1.0,0.5\n1.0,0.0,1.5\n")
    for samples, train in ((empty, labelled), (labelled, empty)):
        caplog.clear()
        assert cli.main(["eval", "--samples", str(samples), "--train", str(train),
                         "--outdir", str(tmp_path)]) == 2
        assert f"{empty}: no rows" in caplog.text
    # truncated and over-long model files
    raw = write_model(tmp_path / "m.rddm").read_bytes()
    assert len(raw) > 300
    flipped = bytearray(raw)
    flipped[-40] ^= 0x01    # a byte of the last layer's weights
    params = init_params(2, cfgmod.NetSection(embed_dim=4, hidden_dims=[8]),
                         make_schedule(10, 1e-4, 0.02), 0)
    for name, body in (("cut.rddm", raw[:300]), ("long.rddm", raw + b"\x00\x00"),
                       ("flipped.rddm", bytes(flipped)), ("v1.rddm", v1_model_bytes(params)),
                       ("v1_short_bias.rddm", v1_model_bytes(params, last_bias_len=1))):
        (tmp_path / name).write_bytes(body)
        assert cli.main(["sample", "--model", str(tmp_path / name), "--n-traj", "2",
                         "--outdir", str(tmp_path)]) == 2
    # an intact version-2 file: the version-3 layout plus a u32 activation
    # code (1, tanh) after the hidden dims
    write_binary(str(tmp_path / "v2.rddm"), b"RDDM", 2, [
        struct.pack("<IIIIIIdd", 2, 4, 1, 8, 1, 10, 1e-4, 0.02), b"\x00", params.theta.tobytes()])
    assert len((tmp_path / "v2.rddm").read_bytes()) == len(raw) + 4
    caplog.clear()
    assert cli.main(["sample", "--model", str(tmp_path / "v2.rddm"), "--n-traj", "2",
                     "--outdir", str(tmp_path)]) == 2
    assert "unsupported model format version 2" in caplog.text
    # a stored schedule make_schedule rejects, under a valid checksum, names the file
    for name, T, beta_start, beta_end in (("t0.rddm", 0, 1e-4, 0.02),
                                          ("reversed.rddm", 10, 0.05, 0.02),
                                          ("beta_big.rddm", 10, 1e-4, 1.5)):
        save_model(str(tmp_path / name),
                   dataclasses.replace(params, sched=stored_schedule(T, beta_start, beta_end)))
        for argv in (["sample", "--model", str(tmp_path / name), "--n-traj", "2"],
                     ["finetune", "--model", str(tmp_path / name)]):
            caplog.clear()
            assert cli.main(argv + ["--outdir", str(tmp_path / "never")]) == 2
            assert f"{tmp_path / name}: bad noise schedule" in caplog.text
    # so does a stored network shape that net.check rejects: an odd embedding,
    # no hidden layer, a zero-width one; and a model of no design coordinate
    for name, d, embed_dim, hidden in (("odd_embed.rddm", 2, 7, (8,)),
                                       ("no_hidden.rddm", 2, 4, ()),
                                       ("zero_width.rddm", 2, 4, (8, 0)),
                                       ("no_design.rddm", 0, 4, (8,))):
        dims = [d + embed_dim, *hidden, d]
        theta = np.zeros(sum(i * o + o for i, o in zip(dims[:-1], dims[1:])))
        save_model(str(tmp_path / name),
                   DenoiserParams(theta, d, embed_dim, hidden, make_schedule(10, 1e-4, 0.02)))
        caplog.clear()
        assert cli.main(["sample", "--model", str(tmp_path / name), "--n-traj", "2",
                         "--outdir", str(tmp_path / "never")]) == 2
        assert f"{tmp_path / name}: bad network shape" in caplog.text
    assert not (tmp_path / "never").exists()
    # truncated, over-long, damaged and version-1 surrogate files
    rows = ["x0,x1,reward"] + [f"{i * 0.1},{i * 0.3 % 1},{i % 3}" for i in range(12)]
    data = tmp_path / "labelled.csv"
    data.write_text("\n".join(rows) + "\n")
    ds = load_dataset(str(data))
    save_ensemble(str(tmp_path / "s.rddt"), fit_ensemble(ds.X, ds.rewards, n_trees=2,
                                                         max_depth=2)[0])
    raw = (tmp_path / "s.rddt").read_bytes()
    flipped = bytearray(raw)
    flipped[-12] ^= 0x01    # a byte of the last tree's leaf values
    v1 = raw[:4] + (1).to_bytes(4, "little") + raw[8:-4]
    for name, body in (("cut.rddt", raw[:-5]), ("long.rddt", raw + b"\x00\x00"),
                       ("flipped.rddt", bytes(flipped)), ("v1.rddt", v1)):
        (tmp_path / name).write_bytes(body)
        assert cli.main(["surrogate", "eval", "--model", str(tmp_path / name),
                         "--data", str(data)]) == 2
    # too few rows, and a non-finite target, to fit a surrogate on
    for name, lines in (("nine.csv", rows[:10]),
                        ("nan.csv", rows[:5] + ["0.5,0.5,nan"] + rows[5:])):
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        assert cli.main(["surrogate", "fit", "--data", str(tmp_path / name),
                         "--out", str(tmp_path / "bad.rddt")]) == 2
    # too few rows to score a surrogate on name the file
    for name, lines in (("one.csv", rows[:2]), ("none.csv", rows[:1])):
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        caplog.clear()
        assert cli.main(["surrogate", "eval", "--model", str(tmp_path / "s.rddt"),
                         "--data", str(tmp_path / name)]) == 2
        assert f"{tmp_path / name}: need at least 2 rows" in caplog.text
    # scoring a surrogate on rows of another width names the file and both widths
    wide = tmp_path / "wide.csv"
    wide.write_text("x0,x1,x2,reward\n" + "".join(f"{i * 0.1},0.5,0.25,{i % 3}\n"
                                                  for i in range(12)))
    caplog.clear()
    assert cli.main(["surrogate", "eval", "--model", str(tmp_path / "s.rddt"),
                     "--data", str(wide)]) == 2
    assert f"{wide}: 3 input columns" in caplog.text and "takes 2" in caplog.text
    # a nan or inf design cell is a data error naming its line, for training
    # (not a non-finite loss) and for a surrogate fit (not a degraded model)
    for cell in ("nan", "inf", "-inf"):
        bad = tmp_path / f"cell_{cell}.csv"
        bad.write_text("\n".join(rows[:4] + [f"{cell},0.5,1"] + rows[4:]) + "\n")
        for argv in (["pretrain", "--data", str(bad), "--epochs", "1",
                      "--outdir", str(tmp_path / "p")],
                     ["surrogate", "fit", "--data", str(bad),
                      "--out", str(tmp_path / "bad.rddt")]):
            caplog.clear()
            assert cli.main(argv) == 2
            assert f"{bad}: line 5: non-finite value in column x0" in caplog.text
    # a header of the reward column alone has no design column to train or fit on
    reward_only = tmp_path / "reward_only.csv"
    reward_only.write_text("reward\n" + "".join(f"{i % 3}\n" for i in range(12)))
    for argv in (["pretrain", "--data", str(reward_only), "--epochs", "1",
                  "--outdir", str(tmp_path / "p")],
                 ["surrogate", "fit", "--data", str(reward_only),
                  "--out", str(tmp_path / "bad.rddt")]):
        caplog.clear()
        assert cli.main(argv) == 2
        assert f"{reward_only}: line 1: bad header, expected x0..x0,reward" in caplog.text
    # file-system errors: a directory where a file belongs, a file where the
    # output directory belongs
    a_file, a_dir = tmp_path / "a_file", tmp_path / "a_dir"
    a_file.write_text("")
    a_dir.mkdir()
    for argv, culprit in (
            (["benchmark", "make", "--n", "2", "--out", str(a_dir)], a_dir),
            (["pretrain", "--data", str(labelled), "--outdir", str(a_file)], a_file),
            (["eval", "--samples", str(labelled), "--train", str(labelled),
              "--outdir", str(a_file)], a_file),
            (["pretrain", "--data", str(a_dir), "--outdir", str(tmp_path / "p")], a_dir),
            (["surrogate", "eval", "--model", str(a_dir), "--data", str(data)], a_dir)):
        caplog.clear()
        assert cli.main(argv) == 2
        assert f"data error: [Errno" in caplog.text and str(culprit) in caplog.text


def test_non_finite_model_values_exit_2(tmp_path, caplog):
    # re-saved through save_model, so each file's checksum is valid
    params = init_params(2, cfgmod.NetSection(embed_dim=4, hidden_dims=[8]),
                         make_schedule(10, 1e-4, 0.02), 0)
    nan_weight = dataclasses.replace(params, theta=params.theta.copy())
    nan_weight.theta[7] = np.nan
    stats = NormStats(mean=np.zeros(2), std=np.ones(2))
    inf_std = NormStats(mean=np.zeros(2), std=np.array([1.0, np.inf]))
    nan_mean = NormStats(mean=np.array([np.nan, 0.0]), std=np.ones(2))
    for name, p, s, beta_end, culprit in (
            ("nan_weight.rddm", nan_weight, stats, 0.02, "weight"),
            ("inf_std.rddm", params, inf_std, 0.02, "normalization std"),
            ("nan_mean.rddm", params, nan_mean, 0.02, "normalization mean"),
            ("inf_beta.rddm", params, None, np.inf, "beta")):
        save_model(str(tmp_path / name), dataclasses.replace(
            p, sched=stored_schedule(10, 1e-4, beta_end), stats=s))
        out = tmp_path / f"out_{name}"
        caplog.clear()
        assert cli.main(["sample", "--model", str(tmp_path / name), "--n-traj", "2",
                         "--outdir", str(out)]) == 2
        assert f"{tmp_path / name}: non-finite {culprit}" in caplog.text
        assert not out.exists()


def test_numerical_errors_exit_3(tmp_path):
    # constant targets make R^2 undefined when scoring the surrogate
    rows = ["x0,x1,reward"] + [f"{i * 0.1},{i * 0.2},1.0" for i in range(15)]
    data = tmp_path / "const.csv"
    data.write_text("\n".join(rows) + "\n")
    model = tmp_path / "surr.rddt"
    assert cli.main(["surrogate", "fit", "--data", str(data),
                     "--out", str(model), "--trees", "3"]) == 0
    assert cli.main(["surrogate", "eval", "--model", str(model),
                     "--data", str(data)]) == 3


def test_hull_eval_prints_resistance_json(tmp_path, capsys):
    path = tmp_path / "hull_eval.json"
    rc = cli.main(["hull", "eval", "--params", "0.25,0.25,0.12,0.08,0.5,0.75",
                   "--loa", "80", "--out", str(path)])
    assert rc == 0
    # one encoder: stdout is the file's text, and print adds the file's final newline
    text = capsys.readouterr().out
    assert text == path.read_text()
    out = json.loads(text)
    # the keys are ResistanceResult's fields, in field order
    assert list(out) == [f.name for f in dataclasses.fields(ResistanceResult)]
    assert out["aggregate"] > 0
    assert len(out["R_w"]) == 8
    assert len(out["R_w"][0]) == 4
    total = np.array(out["R_w"]) + np.array(out["R_f"])
    assert np.allclose(total, np.array(out["R_T"]))


def test_full_workflow(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert cli.main(["benchmark", "make", "--n", "300", "--seed", "0",
                     "--out", str(data)]) == 0
    ds = load_dataset(str(data))
    assert ds.X.shape == (300, 2)
    assert ds.rewards is not None

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schedule": {"T": 8},
        "net": {"embed_dim": 8, "hidden_dims": [16]},
        "pretrain": {"epochs": 2, "batch_size": 64},
        "finetune": {"S": 2, "m": 8, "batch_size": 8},
        "svdd": {"M": 2, "n_traj": 6},
    }))
    run = tmp_path / "run"
    assert cli.main(["pretrain", "--config", str(cfg), "--data", str(data),
                     "--outdir", str(run)]) == 0
    assert (run / "model.rddm").exists()
    hist = (run / "pretrain_history.csv").read_text().strip().splitlines()
    assert hist[0] == "epoch,mean_loss"
    assert len(hist) == 3
    archived = json.loads((run / "pretrain.config.json").read_text())
    assert archived["schedule"]["T"] == 8
    record = json.loads((run / "pretrain.run.json").read_text())
    assert set(record) >= {"command", "finished_at", "timings_seconds", "outputs"}
    assert record["argv"] == ["pretrain", "--config", str(cfg), "--data", str(data),
                              "--outdir", str(run)]

    assert cli.main(["finetune", "--config", str(cfg),
                     "--model", str(run / "model.rddm"),
                     "--outdir", str(run)]) == 0
    assert (run / "model_ft.rddm").exists()
    ft_hist = (run / "finetune_history.csv").read_text().strip().splitlines()
    assert ft_hist[0] == "iteration,mean_reward,mean_loss"
    assert len(ft_hist) == 3

    assert cli.main(["sample", "--config", str(cfg),
                     "--model", str(run / "model_ft.rddm"),
                     "--outdir", str(run), "--seed", "5"]) == 0
    samples = load_dataset(str(run / "samples.csv"))
    assert samples.X.shape == (6, 2)
    assert samples.rewards.shape == (6,)
    # the reward column is the reward of the physical designs written beside
    # it, bit for bit (%.17g round-trips); the default reward is synthetic
    reward = rewardmod.from_section(cfgmod.RewardSection(), 2)
    assert np.array_equal(samples.rewards, reward.batch(samples.X))
    summary = json.loads((run / "sample_summary.json").read_text())
    assert summary["n"] == 6
    assert summary["M"] == 2

    # same seed, fresh directory: byte-identical samples
    run2 = tmp_path / "run2"
    assert cli.main(["sample", "--config", str(cfg),
                     "--model", str(run / "model_ft.rddm"),
                     "--outdir", str(run2), "--seed", "5"]) == 0
    assert (run / "samples.csv").read_bytes() == (run2 / "samples.csv").read_bytes()

    assert cli.main(["eval", "--samples", str(run / "samples.csv"),
                     "--train", str(data), "--outdir", str(run)]) == 0
    stats = json.loads((run / "eval_stats.json").read_text())
    assert set(stats) == {"samples", "training", "beyond_distribution"}
    assert "fraction_above_training_max" in stats["beyond_distribution"]
    dens = (run / "reward_density.csv").read_text().splitlines()
    assert dens[0] == "reward,density_samples,density_training"
    assert len(dens) == 513

    surr = tmp_path / "surr.rddt"
    assert cli.main(["surrogate", "fit", "--data", str(data), "--out", str(surr),
                     "--trees", "20", "--depth", "3"]) == 0
    assert (tmp_path / "surrogate_fit.json").exists()
    capsys.readouterr()
    assert cli.main(["surrogate", "eval", "--model", str(surr),
                     "--data", str(data)]) == 0
    scored = json.loads(capsys.readouterr().out)
    assert scored["n_rows"] == 300
    assert "r2" in scored and "mse" in scored


def test_hull_dataset_feeds_surrogate(tmp_path):
    out = tmp_path / "hulls.csv"
    assert cli.main(["hull", "dataset", "--n", "12", "--seed", "3",
                     "--loa", "60", "--out", str(out)]) == 0
    ds = load_dataset(str(out))
    assert ds.X.shape == (12, 6)
    assert np.all(np.isfinite(ds.rewards))
    surr = tmp_path / "surr.rddt"
    argv = ["surrogate", "fit", "--data", str(out), "--out", str(surr),
            "--trees", "5", "--depth", "2"]
    assert cli.main(argv) == 0
    assert surr.exists()
    record = json.loads((tmp_path / "surrogate_fit.run.json").read_text())
    assert set(record) == {"command", "argv", "finished_at", "timings_seconds", "outputs"}
    assert record["argv"] == argv
    assert set(record["timings_seconds"]) == {"load", "fit"}
    assert record["outputs"] == [str(surr), str(tmp_path / "surrogate_fit.json")]


def test_every_command_writes_its_run_record(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    out.mkdir()
    bench, surr = str(out / "bench.csv"), str(out / "surr.rddt")
    hull = "0.25,0.25,0.12,0.08,0.5,0.75"
    cases = (
        ("hull_dataset", ["hull", "dataset", "--n", "12", "--seed", "3",
                          "--out", str(out / "hulls.csv")]),
        ("benchmark_make", ["benchmark", "make", "--n", "30", "--seed", "0", "--out", bench]),
        ("surrogate_fit", ["surrogate", "fit", "--data", bench, "--out", surr,
                           "--trees", "3", "--depth", "2"]),
        ("surrogate_eval", ["surrogate", "eval", "--model", surr, "--data", bench,
                            "--out", str(out / "scored.json")]),
        ("hull_eval", ["hull", "eval", "--params", hull, "--out", str(out / "hull.json")]),
    )
    for name, argv in cases:
        assert cli.main(argv) == 0
        record = json.loads((out / f"{name}.run.json").read_text())
        assert record["command"] == name.replace("_", " ")
        assert record["argv"] == argv
        assert record["timings_seconds"]
        assert record["outputs"] and all(os.path.exists(p) for p in record["outputs"])
        assert not (out / f"{name}.config.json").exists()
    # without --out the two eval commands only print
    listed = sorted(os.listdir(out))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    for argv in (["surrogate", "eval", "--model", surr, "--data", bench],
                 ["hull", "eval", "--params", hull]):
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)
    assert sorted(os.listdir(out)) == listed
    assert os.listdir(cwd) == []


def test_finetune_and_sample_archive_the_model_files_schedule_and_network(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("x0,x1\n" + "".join(f"{i * 0.1},{(i * 0.7) % 1}\n" for i in range(20)))
    # a one-step schedule's only beta is beta_start; its beta_end is kept too
    for T in (12, 1):
        ran = {"schedule": {"T": T, "beta_start": 1e-4, "beta_end": 0.1},
               "net": {"embed_dim": 8, "hidden_dims": [16]}}
        cfg = write_json(tmp_path / "pre.json", {**ran, "pretrain": {"epochs": 1}})
        run = tmp_path / f"run_{T}"
        assert cli.main(["pretrain", "--config", cfg, "--data", str(data),
                         "--outdir", str(run)]) == 0
        # neither config names a schedule or a network, so both hold the defaults
        small = write_json(tmp_path / "ft.json", {"finetune": {"S": 1, "m": 4, "batch_size": 4}})
        for command, argv in (
                ("finetune", ["finetune", "--config", small, "--model", str(run / "model.rddm")]),
                ("sample", ["sample", "--model", str(run / "model.rddm"), "--M", "2",
                            "--n-traj", "4"])):
            assert cli.main(argv + ["--outdir", str(run)]) == 0
            archived = json.loads((run / f"{command}.config.json").read_text())
            assert {k: archived[k] for k in ran} == ran, (T, command)


def _leaf_parsers(parser, words=()):
    """(command words, parser) of every runnable command."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(words), parser
    for action in subs:
        for word, child in action.choices.items():
            yield from _leaf_parsers(child, words + (word,))


def _config_keys(section, prefix=""):
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        if dataclasses.is_dataclass(value):
            yield from _config_keys(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def test_override_flags_name_config_keys(tmp_path):
    keys = set(_config_keys(cfgmod.RunConfig()))
    overrides = {}
    for command, parser in _leaf_parsers(cli.build_parser()):
        dests = {a.dest for a in parser._actions}
        # a dotted dest can only be a config key; a renamed key fails here
        # instead of silently dropping its flag
        assert {d for d in dests if "." in d} <= keys, command
        if "config" in dests:
            overrides[command] = dests & keys
            assert dests - keys == {"help", "config", "model"} & dests, command
    assert overrides == {
        "pretrain": {"dataset", "outdir", "pretrain.epochs", "pretrain.seed"},
        "finetune": {"outdir", "finetune.seed"},
        "sample": {"outdir", "svdd.M", "svdd.alpha", "svdd.n_traj", "svdd.seed"},
    }

    model = write_model(tmp_path / "m.rddm")
    run = tmp_path / "run"
    assert cli.main(["sample", "--model", str(model), "--outdir", str(run), "--M", "3",
                     "--alpha", "0.1", "--n-traj", "4", "--seed", "9"]) == 0
    archived = json.loads((run / "sample.config.json").read_text())
    assert archived["svdd"] == {"M": 3, "alpha": 0.1, "n_traj": 4, "seed": 9}
    assert archived["outdir"] == str(run)

    data = tmp_path / "data.csv"
    data.write_text("x0,x1\n" + "".join(f"{i * 0.1},{(i * 0.7) % 1}\n" for i in range(20)))
    cfg = write_json(tmp_path / "small.json", {"net": {"embed_dim": 4, "hidden_dims": [8]},
                                                "pretrain": {"epochs": 50, "seed": 0}})
    assert cli.main(["pretrain", "--config", cfg, "--data", str(data), "--outdir", str(run),
                     "--epochs", "2", "--seed", "5"]) == 0
    archived = json.loads((run / "pretrain.config.json").read_text())
    assert archived["dataset"] == str(data)
    assert archived["pretrain"]["epochs"] == 2 and archived["pretrain"]["seed"] == 5
    assert len((run / "pretrain_history.csv").read_text().splitlines()) == 3
