import json
import os
import re
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from rddkit import cli
from rddkit.config import NetSection
from rddkit.data import (
    CSV_BLOCK_ROWS,
    BinaryReader,
    Dataset,
    NormStats,
    denormalize,
    load_dataset,
    normalize,
    save_samples,
    write_binary,
    write_csv,
    write_file,
)
from rddkit.denoiser import init_params, load_model, save_model
from rddkit.diffusion import make_schedule
from rddkit.exceptions import DataError, NumericalError
from rddkit.trees import fit_ensemble, load_ensemble, save_ensemble


def test_normalize_two_point_example():
    ds, stats = normalize(Dataset(X=np.array([[0.0, 0.0], [2.0, 2.0]])))
    assert np.array_equal(ds.X, np.array([[-1.0, -1.0], [1.0, 1.0]]))
    assert np.array_equal(stats.mean, np.array([1.0, 1.0]))
    assert np.array_equal(stats.std, np.array([1.0, 1.0]))


def test_normalize_statistics_oracle():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((1000, 4)) * np.array([3.0, 0.1, 10.0, 1.0]) + 5.0
    ds, stats = normalize(Dataset(X=X))
    assert np.all(np.abs(ds.X.mean(axis=0)) < 1e-10)
    assert np.all(np.abs(ds.X.var(axis=0) - 1.0) < 1e-10)
    assert np.allclose(denormalize(ds.X, stats), X, atol=1e-12)


def test_normalize_constant_column_floors_std():
    X = np.column_stack([np.ones(50), np.linspace(0, 1, 50)])
    with pytest.warns(UserWarning):
        ds, stats = normalize(Dataset(X=X))
    assert stats.std[0] == 1e-8
    assert np.allclose(denormalize(ds.X, stats), X, atol=1e-12)


def test_denormalize_without_stats_returns_its_input():
    # a model of raw coordinates carries stats None
    for x in (np.array([[1.5, -2.0], [0.0, 3.0]]), [[1.0, 2.0]]):
        assert denormalize(x, None) is x


def test_normalize_needs_two_rows():
    with pytest.raises(DataError, match="at least 2 rows, got 1"):
        normalize(Dataset(X=np.ones((1, 3))))


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((40, 3)) * 1e3
    r = rng.standard_normal(40) / 7.0
    path = str(tmp_path / "d.csv")
    save_samples(path, X, r)
    ds = load_dataset(path)
    assert np.array_equal(ds.X, X)
    assert np.array_equal(ds.rewards, r)


def test_csv_without_rewards(tmp_path):
    path = str(tmp_path / "d.csv")
    save_samples(path, np.eye(3))
    ds = load_dataset(path)
    assert ds.rewards is None
    assert np.array_equal(ds.X, np.eye(3))


def test_csv_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"

    p.write_text("x0,x1\n1.0\n")
    with pytest.raises(DataError, match="line 2"):
        load_dataset(str(p))

    p.write_text("x0,x1\n1.0,2.0\n1.0,oops\n")
    with pytest.raises(DataError, match="line 3"):
        load_dataset(str(p))

    p.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(DataError, match="line 1"):
        load_dataset(str(p))

    # a reward column alone is no design: d = 0 is refused, with or without rows
    for text in ("reward\n", "reward\n1.0\n2.0\n"):
        p.write_text(text)
        with pytest.raises(DataError, match="line 1: bad header, expected x0..x0,reward") as err:
            load_dataset(str(p))
        assert str(err.value).startswith(f"{p}: ")

    p.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_dataset(str(p))


def test_large_table_round_trip(tmp_path):
    # shaped like a parametric design table: wide rows, thousands of entries
    rng = np.random.default_rng(2)
    X = rng.random((2000, 20))
    path = str(tmp_path / "wide.csv")
    save_samples(path, X)
    ds = load_dataset(path)
    assert ds.X.shape == (2000, 20)
    assert np.array_equal(ds.X, X)


def per_cell_csv(columns, rows):
    """The CSV bytes of a per-cell format(v, ".17g") loop: the writer's oracle."""
    lines = [",".join(columns)] + [",".join(format(v, ".17g") for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


B = CSV_BLOCK_ROWS
EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize("with_rewards", [False, True])
def test_writer_matches_a_per_cell_loop(tmp_path, n, with_rewards):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
    flat = X.ravel()
    flat[:len(EDGE_VALUES) * 2] = (EDGE_VALUES * 2)[:flat.size]
    r = rng.standard_normal(n) / 7.0 if with_rewards else None
    path = tmp_path / "d.csv"
    save_samples(str(path), X, r)
    columns = ["x0", "x1", "x2"] + (["reward"] if with_rewards else [])
    rows = np.column_stack([X, r]) if with_rewards else X
    assert path.read_bytes() == per_cell_csv(columns, rows)
    ds = load_dataset(str(path))
    assert ds.X.shape == (n, 3)
    assert np.array_equal(ds.X, X) and np.array_equal(np.signbit(ds.X), np.signbit(X))
    if with_rewards:
        assert np.array_equal(ds.rewards, r)
    else:
        assert ds.rewards is None


EDGE_STRINGS = ["1_0", " 2 ", "\u0661\u0662", "-0", "1e400", "nan", "0x10", "1__0", "",
                "-inf", "Infinity", "1e-400", ".5", "1.", "+1", "1e", "1 0", "\t3\t"]


@pytest.mark.parametrize("s", EDGE_STRINGS)
@pytest.mark.parametrize("line", [2, B + 5])
def test_reader_follows_python_float(tmp_path, s, line):
    # the cell sits in the first column of a 2-column file, at the given line
    good = [f"{i}.5,{i}" for i in range(line - 2)]
    path = tmp_path / "edge.csv"
    path.write_text("\n".join(["x0,x1"] + good + [f"{s},7"]) + "\n", encoding="utf-8")
    try:
        expected = float(s)
    except ValueError as e:
        with pytest.raises(DataError, match=re.escape(f"{path}: line {line}: {e}")):
            load_dataset(str(path))
        return
    if not np.isfinite(expected):
        with pytest.raises(DataError,
                           match=f"line {line}: non-finite value in column x0"):
            load_dataset(str(path))
        return
    X = load_dataset(str(path)).X
    assert X.shape == (line - 1, 2)
    assert X[-1, 0] == expected and np.signbit(X[-1, 0]) == np.signbit(expected)
    assert X[-1, 1] == 7.0
    assert np.array_equal(X[:-1, 0], np.arange(line - 2) + 0.5)


def test_errors_in_later_blocks_name_their_own_line(tmp_path):
    rows = [f"{i},{i * 0.5}" for i in range(2 * B + 10)]
    path = tmp_path / "bad.csv"

    def load_with(changes):
        lines = list(rows)
        for line, text in changes.items():
            lines[line - 2] = text
        path.write_text("\n".join(["x0,x1"] + lines) + "\n")
        load_dataset(str(path))

    with pytest.raises(DataError, match=f"line {B + 7}: could not convert string to float: 'oops'"):
        load_with({B + 7: "1.0,oops"})
    with pytest.raises(DataError, match=f"line {2 * B + 5}: expected 2 columns, got 3"):
        load_with({2 * B + 5: "1.0,2.0,3.0"})
    # within one block the first bad line wins, whatever its fault
    with pytest.raises(DataError, match=f"line {B + 7}: could not convert"):
        load_with({B + 7: "oops,1", B + 9: "1"})
    with pytest.raises(DataError, match=f"line {B + 7}: expected 2 columns, got 1"):
        load_with({B + 7: "1", B + 9: "oops,1"})
    # a parse error in a later block outranks a non-finite cell in an earlier one
    with pytest.raises(DataError, match=f"line {2 * B + 4}: could not convert"):
        load_with({3: "nan,1", 2 * B + 4: "1,x"})
    with pytest.raises(DataError, match=f"line {B + 3}: non-finite value in column x1"):
        load_with({B + 3: "1,-inf"})


@pytest.mark.parametrize("header, d", [("x0,x1,reward", 2), ("x0,x1,x2", 3)])
def test_header_only_file_loads_as_empty_arrays(tmp_path, header, d):
    path = tmp_path / "empty.csv"
    path.write_text(header + "\n")
    ds = load_dataset(str(path))
    assert ds.X.shape == (0, d)
    if header.endswith("reward"):
        assert ds.rewards.shape == (0,)
    else:
        assert ds.rewards is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("in_rewards", [False, True])
def test_writer_refuses_non_finite_cells(tmp_path, bad, in_rewards):
    X = np.ones((2 * B + 3, 2))
    r = np.zeros(2 * B + 3)
    (r if in_rewards else X[:, 1])[B + 4] = bad
    path = tmp_path / "out.csv"
    column = "reward" if in_rewards else "x1"
    with pytest.raises(NumericalError, match=re.escape(
            f"{path}: non-finite value in row {B + 5} (line {B + 6}), column {column}")):
        save_samples(str(path), X, r)
    assert not path.exists()
    with pytest.raises(NumericalError, match="row 1 "):
        write_csv(str(path), ["a"], [[bad]])
    assert not path.exists()


def test_history_and_density_tables_keep_their_bytes(tmp_path):
    data = tmp_path / "data.csv"
    assert cli.main(["benchmark", "make", "--n", "200", "--seed", "3", "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schedule": {"T": 8},
        "net": {"embed_dim": 8, "hidden_dims": [16]},
        "pretrain": {"epochs": 3, "batch_size": 64},
        "finetune": {"S": 2, "m": 8, "batch_size": 8},
    }))
    run = tmp_path / "run"
    assert cli.main(["pretrain", "--config", str(cfg), "--data", str(data),
                     "--outdir", str(run)]) == 0
    assert cli.main(["finetune", "--config", str(cfg), "--model", str(run / "model.rddm"),
                     "--outdir", str(run)]) == 0
    assert cli.main(["eval", "--samples", str(data), "--train", str(data),
                     "--outdir", str(run)]) == 0
    # %.17g round-trips, so re-rendering the parsed cells cell by cell gives
    # back the file's bytes only if the writer rendered every cell that way
    for name, counter in (("pretrain_history.csv", [0, 1, 2]),
                          ("finetune_history.csv", [1, 2]), ("reward_density.csv", None)):
        raw = (run / name).read_bytes()
        lines = raw.decode().splitlines()
        rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
        assert raw == per_cell_csv(lines[0].split(","), rows)
        if counter is not None:
            assert [row[0] for row in rows] == counter


# ------------------------------------------------------------ in-place writer

def test_overwriting_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    # every output is written over the old file and cut to its new length:
    # a CSV, a model and a JSON file, each first written long, then short
    params = [init_params(2, NetSection(embed_dim=4, hidden_dims=list(h)),
                          make_schedule(5), 0) for h in ((64, 64), (4,))]
    writers = {
        "out.csv": lambda p, n: save_samples(p, np.arange(2.0 * n).reshape(n, 2) / 3),
        "out.rddm": lambda p, n: save_model(p, params[n == 3]),
        "out.json": lambda p, n: cli._write_json(p, {"rows": list(range(n))}),
    }
    for name, write in writers.items():
        path, fresh = tmp_path / name, tmp_path / f"fresh_{name}"
        write(str(path), 5000)
        long = path.stat().st_size
        write(str(path), 3)
        write(str(fresh), 3)
        assert path.read_bytes() == fresh.read_bytes()
        assert path.stat().st_size < long // 10


def test_a_failed_write_leaves_no_old_byte(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old" * 1000)
    calls, real_write = [], os.write

    def failing_write(fd, data):
        calls.append(len(data))
        if len(calls) == 3:
            raise OSError(28, "No space left on device")
        return real_write(fd, data[:2])     # a short write: the rest comes next call

    monkeypatch.setattr(os, "write", failing_write)
    with pytest.raises(OSError, match="No space left"):
        write_file(str(path), [b"new bytes", b"more"])
    monkeypatch.undo()
    # two short writes of two bytes each landed, and nothing of the old file
    assert path.read_bytes() == b"new "
    assert calls == [9, 7, 5]


def test_write_file_takes_text_and_creates_the_file(tmp_path):
    path = tmp_path / "new.txt"
    assert write_file(str(path), ["a,b\n", b"1,2\n", ""]) == str(path)
    assert path.read_bytes() == b"a,b\n1,2\n"
    write_file(str(path), [])
    assert path.read_bytes() == b""


def test_write_file_writes_to_paths_that_are_not_regular_files(tmp_path):
    # /dev/null and a pipe cannot be cut to length: they are written as they are
    write_file(os.devnull, [b"gone"])
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_file(str(fifo), [b"through ", "the pipe"])
        assert os.read(reader, 100) == b"through the pipe"
    finally:
        os.close(reader)
    assert cli.main(["hull", "eval", "--params", "0.25,0.25,0.12,0.08,0.5,0.75",
                     "--out", os.devnull]) == 0


# ------------------------------------------------------------ binary container

def test_binary_container_round_trip(tmp_path):
    path = tmp_path / "c.bin"
    write_binary(path, b"TEST", 3, [struct.pack("<I", 7), np.arange(3.0).tobytes()])
    raw = path.read_bytes()
    assert raw[:8] == b"TEST" + struct.pack("<I", 3)
    assert raw[-4:] == struct.pack("<I", zlib.crc32(raw[:-4]))
    r = BinaryReader(path, b"TEST", 3, "test")
    assert r.unpack("<I") == (7,)
    assert np.array_equal(r.array("<f8", 3), np.arange(3.0))
    r.finish()


def test_binary_container_checks_magic_then_version_then_crc(tmp_path):
    path = tmp_path / "c.bin"
    write_binary(path, b"TEST", 3, [b"payload"])
    raw = path.read_bytes()
    with pytest.raises(DataError, match="bad magic"):
        BinaryReader(path, b"ELSE", 3, "test")
    # a wrong version is named even though the checksum no longer matches
    path.write_bytes(raw[:4] + struct.pack("<I", 9) + raw[8:])
    with pytest.raises(DataError, match="version 9"):
        BinaryReader(path, b"TEST", 3, "test")
    path.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0x01]))
    with pytest.raises(DataError, match="checksum"):
        BinaryReader(path, b"TEST", 3, "test")
    for body in (b"", b"TE", raw[:6], raw[:10]):
        path.write_bytes(body)
        with pytest.raises(DataError):
            BinaryReader(path, b"TEST", 3, "test")


def flips_that_load(good, path, load):
    """Indices of the bytes of file good that, flipped one at a time, still load."""
    raw = good.read_bytes()
    loaded = []
    for i in range(len(raw)):
        bad = bytearray(raw)
        bad[i] ^= 0xFF
        path.write_bytes(bytes(bad))
        try:
            load(path)
        except DataError:
            continue
        loaded.append(i)
    return loaded


def test_every_flipped_byte_of_a_model_file_is_rejected(tmp_path):
    params = init_params(1, NetSection(embed_dim=2, hidden_dims=[2]),
                         make_schedule(5, 1e-4, 0.02), 0)
    good = tmp_path / "m.rddm"
    save_model(good, replace(params, stats=NormStats(mean=np.zeros(1), std=np.ones(1))))
    load_model(good)
    assert flips_that_load(good, tmp_path / "bad.rddm", load_model) == []


def test_every_flipped_byte_of_a_surrogate_file_is_rejected(tmp_path):
    X = np.linspace(0.0, 1.0, 12)[:, None]
    ens, _ = fit_ensemble(X, (X[:, 0] > 0.5).astype(float), n_trees=1, max_depth=1)
    assert len(ens.trees[0].feature) == 3
    good = tmp_path / "s.rddt"
    save_ensemble(good, ens)
    load_ensemble(good)
    assert flips_that_load(good, tmp_path / "bad.rddt", load_ensemble) == []
