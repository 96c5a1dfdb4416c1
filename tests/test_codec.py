import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedprune import codec, nn
from fedprune.codec import CodecError, csr_encode, decode_layers, dense_encode, encoded_size
from reference import ref_decode, ref_encode, ref_cast, ref_frame, ref_wire, same_params
from test_pruning import EDGE_VALUES


def params_of(*arrays, ids=None):
    ids = ids or [f"l{i}" for i in range(len(arrays))]
    return nn.ParameterSet(tuple(
        nn.LayerParams(lid, np.asarray(a, dtype=float), np.zeros(2))
        for lid, a in zip(ids, arrays)))


def roundtrip(encode, p):
    """Decode encode(p) against p's own layer table; returns (params widened
    to fp64, format)."""
    layers, fmt = decode_layers(encode(p), codec.schema(p))
    return nn.ParameterSet(tuple(layer.dense() for layer in layers)), fmt


def assert_equal_params(a, b):
    assert [e.layer_id for e in a.entries] == [e.layer_id for e in b.entries]
    for ea, eb in zip(a.entries, b.entries):
        assert ea.weight.shape == eb.weight.shape
        assert np.array_equal(ea.weight, eb.weight)
        assert np.array_equal(ea.bias, eb.bias)


W_2X8 = (("w", (2, 8), (1,)),)     # layer table of the frames of w_frame


def w_frame(rows, cols, row_ptr, col_idx, dims=None):
    """One CSR layer "w" of dims (default (rows, cols)) viewed as rows x
    cols, every stored value 1.0, and one zero bias."""
    return ref_frame("csr", [("w", dims or (rows, cols),
                              (rows, cols, row_ptr, col_idx, np.ones(len(col_idx))), [0.0])])


class TestCsr:
    def test_definition_example(self):
        assert csr_encode(params_of([[0.0, 5.0], [7.0, 0.0]])) == ref_frame("csr", [
            ("l0", (2, 2), (2, 2, [0, 1, 2], [1, 0], [5.0, 7.0]), [0.0, 0.0])])

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
        assert_equal_params(roundtrip(csr_encode, p)[0], ref_wire(p))

    def test_rank4_and_rank1_tensors(self):
        rng = np.random.default_rng(1)
        w4 = rng.normal(size=(6, 2, 3, 3)) * (rng.random((6, 2, 3, 3)) < 0.3)
        w1 = rng.normal(size=7)
        p = params_of(w4, w1)
        assert_equal_params(roundtrip(csr_encode, p)[0], ref_wire(p))
        assert len(csr_encode(p)) == encoded_size(p, "csr")

    def test_malformed_row_ptr_rejected(self):
        p = params_of([[0.0, 5.0], [7.0, 0.0]])
        blob = bytearray(csr_encode(p))
        # make row_ptr decreasing: [0,1,2] -> [0,2,1] would move nnz; instead
        # bump row_ptr[1] above row_ptr[2]
        struct.pack_into("<I", blob, 20 + 12 + 4, 9)
        with pytest.raises(CodecError):
            decode_layers(bytes(blob), codec.schema(p))

    def test_col_idx_out_of_range_rejected(self):
        p = params_of([[0.0, 5.0], [7.0, 0.0]])
        blob = bytearray(csr_encode(p))
        struct.pack_into("<I", blob, 20 + 12 + 12, 5)   # first col_idx -> 5 >= cols
        with pytest.raises(CodecError):
            decode_layers(bytes(blob), codec.schema(p))

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
            decode_layers(w_frame(2, 8, row_ptr, col_idx), W_2X8)

    def test_column_resets_at_row_boundary(self):
        # row 0 ends at column 5, row 1 starts again at column 0
        (layer,), _ = decode_layers(w_frame(2, 8, [0, 2, 3], [2, 5, 0]), W_2X8)
        w = layer.dense().weight
        expect = np.zeros((2, 8))
        expect[0, 2] = expect[0, 5] = expect[1, 0] = 1.0
        assert np.array_equal(w, expect)

    def test_bad_magic_and_truncation(self):
        p = params_of([[1.0]])
        blob, expect = csr_encode(p), codec.schema(p)
        with pytest.raises(CodecError):
            decode_layers(b"XXXX" + blob[4:], expect)
        with pytest.raises(CodecError):
            decode_layers(blob[:-2], expect)
        with pytest.raises(CodecError):
            decode_layers(blob + b"\x00", expect)


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
            decode_layers(blob, expect)

    def test_matrix_view_differing_from_dims_rejected(self):
        # dims (2, 8) as published, but the CSR body claims a 4 x 4 matrix
        blob = w_frame(4, 4, [0, 1, 1, 1, 1], [0], dims=(2, 8))
        with pytest.raises(CodecError, match="published"):
            decode_layers(blob, W_2X8)

    @pytest.mark.parametrize("rows, cols", [(1, 2**32 - 1), (2**32 - 1, 1)])
    def test_oversized_header_rejected_before_allocating(self, rows, cols):
        # a 2**32-1 element layer would be a 32 GiB float64 allocation
        blob = w_frame(rows, cols, [0, 0], [])
        with pytest.raises(CodecError, match="published"):
            decode_layers(blob, W_2X8)


class TestDecodeLayers:
    def test_csr_layer_kept_as_the_wire_sent_it(self):
        (layer,), fmt = codec.decode_layers(w_frame(2, 8, [0, 2, 3], [2, 5, 0]), W_2X8)
        assert fmt == "csr" and (layer.layer_id, layer.shape) == ("w", (2, 8))
        assert layer.flat.tolist() == [2, 5, 8]
        assert layer.values.dtype == layer.bias.dtype == np.float32
        assert layer.values.tolist() == [1.0, 1.0, 1.0] and layer.bias.tolist() == [0.0]

    def test_dense_layer_has_no_index(self):
        p = params_of(np.arange(6.0).reshape(2, 3))
        (layer,), fmt = codec.decode_layers(dense_encode(p), codec.schema(p))
        assert fmt == "dense" and layer.flat is None
        assert layer.values.dtype == np.float32
        assert layer.values.tolist() == list(range(6))


class TestDense:
    def test_roundtrip_identity(self):
        rng = np.random.default_rng(3)
        p = params_of(rng.normal(size=(4, 5)), rng.normal(size=(2, 3, 3, 3)))
        assert_equal_params(roundtrip(dense_encode, p)[0], ref_wire(p))

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



@st.composite
def edge_weights(draw):
    """Weights of rank 1, 2 or 4 of small values and EDGE_VALUES, mostly
    zero, with zeroed leading-axis slices (empty CSR rows), sometimes all
    zero."""
    shape = draw(st.one_of(st.tuples(st.integers(1, 30)),
                           st.tuples(st.integers(1, 8), st.integers(1, 8)),
                           st.tuples(*[st.integers(1, 3)] * 4)))
    size = int(np.prod(shape))
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(-4, 4, width=32),
                                     st.sampled_from(EDGE_VALUES)),
                           min_size=size, max_size=size))
    w = np.array(values).reshape(shape)
    w[draw(st.lists(st.integers(0, shape[0] - 1), max_size=shape[0]))] = 0.0
    if draw(st.booleans()) and draw(st.booleans()):
        w[...] = 0.0
    return w


class TestOneScanCsr:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(edge_weights(), min_size=1, max_size=3))
    def test_bit_identical_to_rowwise_encode(self, weights):
        p = params_of(*weights)
        assert csr_encode(p) == ref_encode(p, "csr")
        assert dense_encode(p) == ref_encode(p, "dense")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(edge_weights(), min_size=1, max_size=3))
    def test_textbook_decode_inverts_encode(self, weights):
        # the tests' own decoder, which the enclave tests build their
        # expected FedAvg from, reads back the fp32 cast of what was encoded;
        # CSR stores no zero, so its -0.0 weights come back +0.0
        p = params_of(*weights)
        assert same_params(ref_decode(dense_encode(p)), ref_cast(p, np.float32))
        assert same_params(ref_decode(csr_encode(p)), ref_cast(p, np.float32).map(
            lambda lid, w, b: (np.where(w == 0.0, np.float32(0.0), w), b)))

    def test_lenet_fc1_with_empty_rows(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(800, 500)) * (rng.random((800, 500)) < 0.0055)
        w[100:300] = 0.0
        w.reshape(-1)[rng.integers(0, w.size, 40)] = np.array(EDGE_VALUES * 5)
        p = params_of(w, np.zeros((20, 1, 5, 5)))
        assert csr_encode(p) == ref_encode(p, "csr")


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
            assert_equal_params(decoded, ref_wire(p))

    def test_cross_format_agreement(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(12, 9)) * (rng.random((12, 9)) < 0.4)
        p = params_of(m)
        assert_equal_params(roundtrip(csr_encode, p)[0], roundtrip(dense_encode, p)[0])

