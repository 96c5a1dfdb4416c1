"""Dataset loading: MNIST IDX files plus synthetic generators for tests.

MNIST is read from standard big-endian IDX files under a data directory
(``ESMFL_DATA_DIR`` or ``--data-dir``); nothing is ever downloaded.  The
synthetic generators produce Gaussian-blob class data in either flat or
image shape so the full pipeline can run without any external files.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATA_DIR_ENV = "ESMFL_DATA_DIR"


@dataclass(frozen=True)
class Dataset:
    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int


class IdxFormatError(ValueError):
    pass


def read_idx(path: str | Path) -> np.ndarray:
    """Read one big-endian IDX file (optionally gzipped)."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4 or len(raw) < 4 + 4 * raw[3]:
        raise IdxFormatError(f"{path}: truncated header")
    zero, dtype_code, ndim = struct.unpack(">HBB", raw[:4])
    if zero != 0:
        raise IdxFormatError(f"{path}: bad magic {raw[:4]!r}")
    dtypes = {0x08: np.uint8, 0x09: np.int8, 0x0B: ">i2",
              0x0C: ">i4", 0x0D: ">f4", 0x0E: ">f8"}
    if dtype_code not in dtypes:
        raise IdxFormatError(f"{path}: unknown dtype code 0x{dtype_code:02x}")
    dims = struct.unpack(f">{ndim}I", raw[4:4 + 4 * ndim])
    dtype = np.dtype(dtypes[dtype_code])
    if len(raw) - 4 - 4 * ndim != math.prod(dims) * dtype.itemsize:
        raise IdxFormatError(f"{path}: payload size does not match dims {dims}")
    return np.frombuffer(raw[4 + 4 * ndim:], dtype=dtype).reshape(dims)


_MNIST_FILES = {
    "train_x": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_y": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_x": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_y": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def mnist_available(data_dir: str | Path | None = None) -> bool:
    try:
        _resolve_mnist_paths(data_dir)
        return True
    except FileNotFoundError:
        return False


def _resolve_mnist_paths(data_dir: str | Path | None):
    base = Path(data_dir or os.environ.get(DATA_DIR_ENV, "data"))
    out = {}
    for key, names in _MNIST_FILES.items():
        for name in names:
            for cand in (base / name, base / (name + ".gz"), base / "mnist" / name,
                         base / "mnist" / (name + ".gz")):
                if cand.exists():
                    out[key] = cand
                    break
            if key in out:
                break
        if key not in out:
            raise FileNotFoundError(
                f"MNIST file {names[0]}[.gz] not found under {base} "
                f"(set ${DATA_DIR_ENV} to the directory holding the IDX files)")
    return out


def load_mnist(data_dir: str | Path | None = None) -> Dataset:
    """MNIST as (N, 1, 28, 28) float64 in [0, 1] plus int labels."""
    paths = _resolve_mnist_paths(data_dir)
    tx = read_idx(paths["train_x"]).astype(np.float64) / 255.0
    ty = read_idx(paths["train_y"]).astype(np.int64)
    vx = read_idx(paths["test_x"]).astype(np.float64) / 255.0
    vy = read_idx(paths["test_y"]).astype(np.int64)
    return Dataset("mnist", tx[:, None, :, :], ty, vx[:, None, :, :], vy, 10)


def _blobs(name, num_train, num_test, shape, num_classes, scale, spread, seed) -> Dataset:
    """Class means drawn N(0, scale), then per split labels plus N(0, spread) noise."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, scale, size=(num_classes, *shape))
    splits = []
    for n in (num_train, num_test):
        y = rng.integers(0, num_classes, size=n)
        splits += [centers[y] + rng.normal(0.0, spread, size=(n, *shape)), y]
    return Dataset(name, *splits, num_classes)


def synthetic_blobs(num_train: int = 2000, num_test: int = 500,
                    num_features: int = 20, num_classes: int = 4,
                    spread: float = 1.0, seed: int = 0) -> Dataset:
    """Gaussian blobs, one cluster per class, flat feature vectors."""
    return _blobs("synthetic-blobs", num_train, num_test, (num_features,),
                  num_classes, 2.0, spread, seed)


def synthetic_images(num_train: int = 1000, num_test: int = 200,
                     channels: int = 3, side: int = 32, num_classes: int = 10,
                     spread: float = 0.7, seed: int = 0) -> Dataset:
    """Gaussian-blob classes as (C, side, side) images: a CIFAR-10-shaped
    stand-in, where the real dataset is not on disk, for the same conv pipeline."""
    return _blobs("synthetic-images", num_train, num_test, (channels, side, side),
                  num_classes, 1.0, spread, seed)
