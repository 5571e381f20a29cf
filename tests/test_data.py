import struct
import zlib

import numpy as np
import pytest

from rddkit.config import NetSection
from rddkit.data import (
    BinaryReader,
    Dataset,
    NormStats,
    denormalize,
    load_dataset,
    normalize,
    save_samples,
    write_binary,
)
from rddkit.denoiser import init_params, load_model, save_model
from rddkit.exceptions import DataError
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
    params = init_params(1, NetSection(embed_dim=2, hidden_dims=[2]), 0)
    good = tmp_path / "m.rddm"
    save_model(good, params, T=5, beta_start=1e-4, beta_end=0.02,
               stats=NormStats(mean=np.zeros(1), std=np.ones(1)))
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
