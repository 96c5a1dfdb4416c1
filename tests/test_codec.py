import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedprune import codec, nn
from fedprune.codec import (CodecError, csr_encode, decode_params, dense_encode,
                            encoded_size)


def params_of(*arrays, ids=None):
    ids = ids or [f"l{i}" for i in range(len(arrays))]
    return nn.ParameterSet(tuple(
        nn.LayerParams(lid, np.asarray(a, dtype=float), np.zeros(2))
        for lid, a in zip(ids, arrays)))


def f32(params):
    return params.map(lambda lid, w, b: (w.astype(np.float32).astype(np.float64),
                                         b.astype(np.float32).astype(np.float64)))


def roundtrip(encode, p):
    """Decode encode(p) against p's own layer table; returns (params, format)."""
    return decode_params(encode(p), codec.schema(p))


def assert_equal_params(a, b):
    assert a.layer_ids() == b.layer_ids()
    for ea, eb in zip(a.entries, b.entries):
        assert ea.weight.shape == eb.weight.shape
        assert np.array_equal(ea.weight, eb.weight)
        assert np.array_equal(ea.bias, eb.bias)


# layer table of the hand-made blobs below
W_2X8 = (("w", (2, 8), (1,)),)


def csr_blob(rows, cols, row_ptr, col_idx, dims=None):
    """Hand-made one-layer CSR blob: layer "w" of shape dims (default
    (rows, cols)) viewed as rows x cols, every stored value 1.0, one zero bias."""
    return b"".join([
        codec.MAGIC, struct.pack("<BBH", codec.VERSION, codec.FORMAT_CSR, 1),
        struct.pack("<B1sB2I", 1, b"w", 2, *(dims or (rows, cols))),
        struct.pack("<III", rows, cols, len(col_idx)),
        np.asarray(row_ptr, dtype="<u4").tobytes(),
        np.asarray(col_idx, dtype="<u4").tobytes(),
        np.ones(len(col_idx), dtype="<f4").tobytes(),
        struct.pack("<I", 1), np.zeros(1, dtype="<f4").tobytes()])


class TestCsr:
    def test_definition_example(self):
        blob = csr_encode(params_of([[0.0, 5.0], [7.0, 0.0]]))
        # skip global header (8B) + id header (1+2+1+2*4 = 12B)
        body = blob[20:]
        rows, cols, nnz = struct.unpack("<III", body[:12])
        assert (rows, cols, nnz) == (2, 2, 2)
        row_ptr = np.frombuffer(body[12:24], dtype="<u4")
        col_idx = np.frombuffer(body[24:32], dtype="<u4")
        values = np.frombuffer(body[32:40], dtype="<f4")
        assert list(row_ptr) == [0, 1, 2]
        assert list(col_idx) == [1, 0]
        assert list(values) == [5.0, 7.0]

    def test_all_zero_layer(self):
        p = params_of(np.zeros((3, 4)))
        decoded, fmt = roundtrip(csr_encode, p)
        assert fmt == "csr"
        assert np.array_equal(decoded.entries[0].weight, np.zeros((3, 4)))
        assert encoded_size(p, "csr") == len(csr_encode(p))

    def test_random_sparse_roundtrip(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(100, 100)) * (rng.random((100, 100)) < 0.1)
        p = params_of(m)
        assert_equal_params(roundtrip(csr_encode, p)[0], f32(p))

    def test_rank4_and_rank1_tensors(self):
        rng = np.random.default_rng(1)
        w4 = rng.normal(size=(6, 2, 3, 3)) * (rng.random((6, 2, 3, 3)) < 0.3)
        w1 = rng.normal(size=7)
        p = params_of(w4, w1)
        assert_equal_params(roundtrip(csr_encode, p)[0], f32(p))
        assert len(csr_encode(p)) == encoded_size(p, "csr")

    def test_malformed_row_ptr_rejected(self):
        p = params_of([[0.0, 5.0], [7.0, 0.0]])
        blob = bytearray(csr_encode(p))
        # make row_ptr decreasing: [0,1,2] -> [0,2,1] would move nnz; instead
        # bump row_ptr[1] above row_ptr[2]
        struct.pack_into("<I", blob, 20 + 12 + 4, 9)
        with pytest.raises(CodecError):
            decode_params(bytes(blob), codec.schema(p))

    def test_col_idx_out_of_range_rejected(self):
        p = params_of([[0.0, 5.0], [7.0, 0.0]])
        blob = bytearray(csr_encode(p))
        struct.pack_into("<I", blob, 20 + 12 + 12, 5)   # first col_idx -> 5 >= cols
        with pytest.raises(CodecError):
            decode_params(bytes(blob), codec.schema(p))

    @pytest.mark.parametrize("row_ptr, col_idx", [
        ([1, 1, 2], [0, 1]),        # row_ptr[0] != 0
        ([0, 1, 3], [0, 1]),        # row_ptr[-1] != nnz
        ([0, 3, 2], [0, 1]),        # row_ptr decreasing
        ([0, 1, 2], [3, 8]),        # col_idx >= cols
        ([0, 2, 2], [3, 3]),        # repeated column in a row
        ([0, 2, 2], [4, 3]),        # descending columns in a row
    ], ids=["row_ptr_start", "row_ptr_end", "row_ptr_decreasing",
            "col_out_of_range", "col_repeated", "col_descending"])
    def test_malformed_csr_rejected(self, row_ptr, col_idx):
        with pytest.raises(CodecError):
            decode_params(csr_blob(2, 8, row_ptr, col_idx), W_2X8)

    def test_column_resets_at_row_boundary(self):
        # row 0 ends at column 5, row 1 starts again at column 0
        w = decode_params(csr_blob(2, 8, [0, 2, 3], [2, 5, 0]), W_2X8)[0]["w"].weight
        expect = np.zeros((2, 8))
        expect[0, 2] = expect[0, 5] = expect[1, 0] = 1.0
        assert np.array_equal(w, expect)

    def test_bad_magic_and_truncation(self):
        p = params_of([[1.0]])
        blob, expect = csr_encode(p), codec.schema(p)
        with pytest.raises(CodecError):
            decode_params(b"XXXX" + blob[4:], expect)
        with pytest.raises(CodecError):
            decode_params(blob[:-2], expect)
        with pytest.raises(CodecError):
            decode_params(blob + b"\x00", expect)


class TestPublishedLayers:
    @pytest.mark.parametrize("encode", [dense_encode, csr_encode])
    @pytest.mark.parametrize("expect", [
        (),                                                   # layer count
        (("l0", (2, 3), (2,)), ("l1", (1,), (2,))),           # layer count
        (("x0", (2, 3), (2,)),),                              # layer id
        (("l0", (3, 2), (2,)),),                              # weight dims
        (("l0", (2, 3, 1), (2,)),),                           # weight rank
        (("l0", (2, 3), (3,)),),                              # bias length
    ], ids=["no_layers", "extra_layer", "id", "dims", "rank", "bias"])
    def test_layers_differing_from_published_rejected(self, encode, expect):
        blob = encode(params_of(np.ones((2, 3))))
        with pytest.raises(CodecError, match="published"):
            decode_params(blob, expect)

    def test_matrix_view_differing_from_dims_rejected(self):
        # dims (2, 8) as published, but the CSR body claims a 4 x 4 matrix
        blob = csr_blob(4, 4, [0, 1, 1, 1, 1], [0], dims=(2, 8))
        with pytest.raises(CodecError, match="published"):
            decode_params(blob, W_2X8)

    @pytest.mark.parametrize("rows, cols", [(1, 2**32 - 1), (2**32 - 1, 1)])
    def test_oversized_header_rejected_before_allocating(self, rows, cols):
        # a 2**32-1 element layer would be a 32 GiB float64 allocation
        blob = csr_blob(rows, cols, [0, 0], [])
        with pytest.raises(CodecError, match="published"):
            decode_params(blob, W_2X8)


class TestDense:
    def test_roundtrip_identity(self):
        rng = np.random.default_rng(3)
        p = params_of(rng.normal(size=(4, 5)), rng.normal(size=(2, 3, 3, 3)))
        assert_equal_params(roundtrip(dense_encode, p)[0], f32(p))

    def test_size_formula(self):
        p = params_of(np.ones((10, 20)))
        blob = dense_encode(p)
        assert len(blob) == encoded_size(p, "dense")
        # 4B magic + 4B header + (1+2)B id + 1B ndim + 8B dims + 800B values
        # + 4B bias len + 8B bias
        assert len(blob) == 8 + 3 + 1 + 8 + 4 * 200 + 4 + 8

    def test_lenet_dense_about_1_72_mb(self):
        p = nn.init_model(nn.lenet5(), 0)
        size = encoded_size(p, "dense")
        assert 4 * 431080 <= size <= 4 * 431080 + 200   # payload + headers
        assert size == len(dense_encode(p))



class TestSizes:
    def test_csr_payload_formula(self):
        rng = np.random.default_rng(5)
        m = np.zeros((100, 100))
        ix = rng.choice(10000, 1000, replace=False)
        m.flat[ix] = rng.normal(size=1000) + 10.0      # keep away from 0
        p = params_of(m)
        blob = csr_encode(p)
        header = 8 + (1 + 2 + 1 + 8)                    # global + id/dims
        payload = 12 + 4 * 101 + 4 * 1000 + 4 * 1000    # rows/cols/nnz + arrays
        bias = 4 + 8
        assert len(blob) == header + payload + bias
        # sparse-body arithmetic: 4*nnz + 4*nnz + 4*(rows+1) = 8404
        assert 4 * 1000 + 4 * 1000 + 4 * 101 == 8404

    def test_csr_monotone_in_nnz(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(40, 40))
        sizes = []
        for keep in (1600, 800, 200, 40, 0):
            m = base.copy().reshape(-1)
            m[np.argsort(np.abs(m))[:1600 - keep]] = 0.0
            sizes.append(encoded_size(params_of(m.reshape(40, 40)), "csr"))
        assert sizes == sorted(sizes, reverse=True)
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_full_csr_bigger_than_dense(self):
        p = params_of(np.ones((30, 30)))
        assert encoded_size(p, "csr") > encoded_size(p, "dense")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_roundtrip_and_size_property(self, rows, cols, density, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < density)
        p = params_of(m)
        for fmt, encode in (("csr", csr_encode), ("dense", dense_encode)):
            assert len(encode(p)) == encoded_size(p, fmt)
            decoded, decoded_fmt = roundtrip(encode, p)
            assert decoded_fmt == fmt
            assert_equal_params(decoded, f32(p))

    def test_cross_format_agreement(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(12, 9)) * (rng.random((12, 9)) < 0.4)
        p = params_of(m)
        assert_equal_params(roundtrip(csr_encode, p)[0], roundtrip(dense_encode, p)[0])

