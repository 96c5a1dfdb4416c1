import gzip
import struct

import numpy as np
import pytest

from fedprune import datasets
from fedprune.datasets import IdxFormatError, load_mnist, mnist_available, read_idx

# IDX type codes and the big-endian dtypes they name
IDX_DTYPES = {0x08: ">u1", 0x09: ">i1", 0x0B: ">i2", 0x0C: ">i4", 0x0D: ">f4", 0x0E: ">f8"}


def idx_bytes(array: np.ndarray, code: int = 0x08) -> bytes:
    header = struct.pack(">HBB", 0, code, array.ndim) + struct.pack(f">{array.ndim}I",
                                                                    *array.shape)
    return header + array.astype(IDX_DTYPES[code]).tobytes()


def write(path, raw: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    with (gzip.open if path.suffix == ".gz" else open)(path, "wb") as f:
        f.write(raw)
    return path


def mnist_arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {"train_x": rng.integers(0, 256, (5, 28, 28), dtype=np.uint8),
            "train_y": rng.integers(0, 10, 5, dtype=np.uint8),
            "test_x": rng.integers(0, 256, (3, 28, 28), dtype=np.uint8),
            "test_y": rng.integers(0, 10, 3, dtype=np.uint8)}


class TestReadIdx:
    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
    @pytest.mark.parametrize("code", sorted(IDX_DTYPES))
    def test_round_trip(self, tmp_path, code, gz):
        a = np.arange(-12, 12).reshape(2, 3, 4)
        if code == 0x08:
            a = a + 12
        out = read_idx(write(tmp_path / ("a.idx.gz" if gz else "a.idx"), idx_bytes(a, code)))
        assert out.shape == (2, 3, 4)
        assert out.dtype == np.dtype(IDX_DTYPES[code])
        assert np.array_equal(out, a)

    @pytest.mark.parametrize("raw, match", [
        (b"\x00\x00", "truncated header"),
        # three dims announced, one given
        (struct.pack(">HBBI", 0, 0x08, 3, 5), "truncated header"),
        (struct.pack(">HBBI", 1, 0x08, 1, 2) + b"\x00\x00", "bad magic"),
        (struct.pack(">HBBI", 0, 0x0A, 1, 2) + b"\x00\x00", "unknown dtype code 0x0a"),
        (struct.pack(">HBBI", 0, 0x08, 1, 5) + b"\x00" * 4, "payload size"),
        (struct.pack(">HBBI", 0, 0x08, 1, 5) + b"\x00" * 6, "payload size"),
        # three bytes of 2-byte values
        (struct.pack(">HBBI", 0, 0x0B, 1, 2) + b"\x00" * 3, "payload size"),
    ], ids=["short", "short_dims", "magic", "dtype", "payload_short", "payload_long",
            "payload_partial_item"])
    def test_malformed(self, tmp_path, raw, match):
        with pytest.raises(IdxFormatError, match=match):
            read_idx(write(tmp_path / "bad.idx", raw))


class TestLoadMnist:
    @pytest.mark.parametrize("style", [0, 1], ids=["dash_names", "dot_names"])
    @pytest.mark.parametrize("suffix", ["", ".gz"], ids=["plain", "gz"])
    @pytest.mark.parametrize("subdir", ["", "mnist"], ids=["top", "mnist_subdir"])
    def test_layouts(self, tmp_path, style, suffix, subdir):
        arrays = mnist_arrays()
        for key, names in datasets._MNIST_FILES.items():
            write(tmp_path / subdir / (names[style] + suffix), idx_bytes(arrays[key]))
        assert mnist_available(tmp_path)
        ds = load_mnist(tmp_path)
        assert (ds.name, ds.num_classes) == ("mnist", 10)
        assert ds.train_x.shape == (5, 1, 28, 28) and ds.test_x.shape == (3, 1, 28, 28)
        assert ds.train_x.dtype == ds.test_x.dtype == np.float64
        assert np.array_equal(ds.train_x[:, 0], arrays["train_x"] / 255.0)
        assert np.array_equal(ds.test_x[:, 0], arrays["test_x"] / 255.0)
        assert 0.0 <= ds.train_x.min() and ds.train_x.max() <= 1.0
        assert ds.train_y.dtype == ds.test_y.dtype == np.int64
        assert np.array_equal(ds.train_y, arrays["train_y"])
        assert np.array_equal(ds.test_y, arrays["test_y"])

    def test_data_dir_from_environment(self, tmp_path, monkeypatch):
        arrays = mnist_arrays(1)
        for key, names in datasets._MNIST_FILES.items():
            write(tmp_path / names[0], idx_bytes(arrays[key]))
        monkeypatch.setenv(datasets.DATA_DIR_ENV, str(tmp_path))
        assert np.array_equal(load_mnist().test_y, arrays["test_y"])

    def test_missing_file(self, tmp_path):
        arrays = mnist_arrays()
        for key, names in list(datasets._MNIST_FILES.items())[:3]:
            write(tmp_path / names[0], idx_bytes(arrays[key]))
        assert not mnist_available(tmp_path)
        with pytest.raises(FileNotFoundError, match="t10k-labels-idx1-ubyte"):
            load_mnist(tmp_path)
