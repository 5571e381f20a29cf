"""Datasets of design vectors, z-score normalization, CSV I/O, and the
checksummed binary container behind the model and surrogate files.

The on-disk format is a plain CSV with header columns x0..x{d-1} and an
optional trailing reward column. Cells are written as %.17g, so values
round-trip exactly through the file, and parsed by Python float() rules.
A nan or inf cell is refused on write (NumericalError) and on read
(DataError); every read error carries its line number. Both directions
work on blocks of CSV_BLOCK_ROWS rows.
"""

import struct
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from rddkit.exceptions import DataError, NumericalError

STD_FLOOR = 1e-8
# rows formatted or parsed at a time: one string per block, not per cell
CSV_BLOCK_ROWS = 1024


@dataclass
class NormStats:
    mean: np.ndarray
    std: np.ndarray


@dataclass
class Dataset:
    X: np.ndarray
    rewards: np.ndarray = None

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]


def write_binary(path, magic, version, chunks):
    """Write a binary container: magic, u32 version, the payload chunks (bytes)
    and a trailing u32 CRC32 of every byte before it, all little-endian."""
    body = b"".join([magic, struct.pack("<I", version), *chunks])
    with open(path, "wb") as f:
        f.write(body)
        f.write(struct.pack("<I", zlib.crc32(body)))


class BinaryReader:
    """Sequential little-endian reads over the payload of a write_binary file.

    Opening checks the magic, then the version, then the CRC32, so a file of
    the wrong kind, an unsupported version or a flipped byte never loads. A
    read past the payload's end or payload bytes left over at finish() raise
    DataError, so a truncated or over-long file never loads either.
    """

    def __init__(self, path, magic, version, kind):
        with open(path, "rb") as f:
            self.raw = f.read()
        self.path = path
        if self.raw[:len(magic)] != magic:
            raise DataError(f"{path}: not a {kind} file (bad magic)")
        self.off = len(magic)
        (found,) = self.unpack("<I")
        if found != version:
            raise DataError(f"{path}: unsupported {kind} format version {found}")
        body = memoryview(self.raw)[:-4]
        if zlib.crc32(body) != struct.unpack_from("<I", self.raw, len(body))[0]:
            raise DataError(f"{path}: checksum mismatch (damaged file)")
        self.raw = body

    def _advance(self, size):
        if self.off + size > len(self.raw):
            raise DataError(f"{self.path}: truncated file ({len(self.raw)} bytes)")
        start, self.off = self.off, self.off + size
        return start

    def unpack(self, fmt):
        return struct.unpack_from(fmt, self.raw, self._advance(struct.calcsize(fmt)))

    def array(self, dtype, count):
        """count values of a little-endian dtype, copied into native byte order."""
        dtype = np.dtype(dtype)
        start = self._advance(dtype.itemsize * count)
        arr = np.frombuffer(self.raw, dtype=dtype, count=count, offset=start)
        return arr.astype(dtype.newbyteorder("="))

    def finish(self):
        if self.off != len(self.raw):
            raise DataError(f"{self.path}: {len(self.raw) - self.off} trailing bytes")


def normalize(dataset):
    """Per-column z-score. Returns (normalized dataset, stats).

    Constant columns get their std floored at 1e-8 (with a warning) so the
    transform never divides by zero; denormalize still inverts exactly.
    """
    X = np.asarray(dataset.X, dtype=np.float64)
    if X.shape[0] < 2:
        raise DataError(f"normalization needs at least 2 rows, got {X.shape[0]}")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    degenerate = std < STD_FLOOR
    if np.any(degenerate):
        warnings.warn(
            f"{int(degenerate.sum())} constant column(s); std floored at {STD_FLOOR:g}"
        )
        std = np.where(degenerate, STD_FLOOR, std)
    Z = (X - mean) / std
    return Dataset(X=Z, rewards=dataset.rewards), NormStats(mean=mean, std=std)


def denormalize(x, stats):
    """Map z-score coordinates back to physical coordinates."""
    return np.asarray(x) * stats.std + stats.mean


def _parse_block(path, lines, first_line, n_cols):
    """The (len(lines), n_cols) float64 array of CSV lines; the first bad line
    raises a DataError naming it."""
    if all(line.count(",") == n_cols - 1 for line in lines):
        try:
            return np.array(",".join(lines).split(","), dtype=np.float64).reshape(-1, n_cols)
        except ValueError:
            pass
    rows = np.empty((len(lines), n_cols), dtype=np.float64)
    for i, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise DataError(f"{path}: line {first_line + i}: expected {n_cols} columns, "
                            f"got {len(parts)}")
        try:
            rows[i] = [float(p) for p in parts]
        except ValueError as e:
            raise DataError(f"{path}: line {first_line + i}: {e}") from None
    return rows


def load_dataset(path):
    """Parse a design CSV; raises DataError with a line number on bad input,
    including a nan or inf cell (Python's float() would accept them)."""
    with open(path, "r") as f:
        lines = f.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    has_reward = header[-1] == "reward"
    d = len(header) - 1 if has_reward else len(header)
    expected = [f"x{i}" for i in range(d)] + (["reward"] if has_reward else [])
    if header != expected:
        raise DataError(f"{path}: line 1: bad header, expected x0..x{d - 1}" +
                        (",reward" if has_reward else ""))
    # the table is joined after the last block's parse temporaries are freed;
    # one allocated up front sat between them on the heap and left a hole too
    # small for the large KDE blocks that follow (mixture_svdd peak RSS +2.4 MB)
    blocks = [_parse_block(path, lines[start:start + CSV_BLOCK_ROWS], start + 1, len(header))
              for start in range(1, len(lines), CSV_BLOCK_ROWS)]
    rows = np.concatenate([np.empty((0, len(header))), *blocks])
    bad = ~np.isfinite(rows)
    if np.any(bad):
        r, c = np.argwhere(bad)[0]
        raise DataError(f"{path}: line {r + 2}: non-finite value in column {header[c]}")
    if has_reward:
        return Dataset(X=rows[:, :-1], rewards=rows[:, -1].copy())
    return Dataset(X=rows, rewards=None)


def write_csv(path, columns, table):
    """Write a CSV of the named columns over an (n, len(columns)) table, every
    cell as %.17g. A nan or inf cell raises NumericalError before the file is
    opened, so every CSV written here reads back."""
    table = np.asarray(table, dtype=np.float64)
    bad = ~np.isfinite(table)
    if np.any(bad):
        r, c = np.argwhere(bad)[0]
        raise NumericalError(f"{path}: non-finite value in row {r + 1} (line {r + 2}), "
                             f"column {columns[c]}; nothing written")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for start in range(0, table.shape[0], CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            f.write(row * block.shape[0] % tuple(block.ravel().tolist()))
    return path


def save_samples(path, designs, rewards=None):
    """Write designs (and optionally rewards) in the dataset CSV format."""
    X = np.asarray(designs, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("designs must be a 2-D array")
    columns = [f"x{i}" for i in range(X.shape[1])]
    if rewards is not None:
        rewards = np.asarray(rewards, dtype=np.float64)
        if rewards.shape[0] != X.shape[0]:
            raise ValueError("rewards length must match designs")
        X = np.column_stack([X, rewards])
        columns.append("reward")
    write_csv(path, columns, X)
