"""Deterministic binary serialization of parameter sets, dense or CSR.

Wire layout (all integers little-endian, floats IEEE-754 binary32):

    magic "ESMB" | version u8 | format u8 (0=dense, 1=csr) | layer_count u16
    then per layer:
      id_len u8 | layer_id utf-8 | ndim u8 | dims u32 * ndim
      dense: values f32 * prod(dims)
      csr:   rows u32 | cols u32 | nnz u32
             row_ptr u32 * (rows+1) | col_idx u32 * nnz | values f32 * nnz
      then:  bias_len u32 | bias f32 * bias_len

Weights of rank != 2 are viewed as (first-dim x rest) matrices for CSR.
Biases and row pointers are always stored dense.  Values cross the wire in
fp32, the precision clients train in; the enclave widens them to fp64 to
average them into its fp64 global model.

Decoding checks the blob against the published layer table (``schema``):
layer count, ids, dims, the CSR matrix view and bias lengths must match it
before any array is read, so no allocation is ever sized from the wire.
``decode_layers``, the one reader, keeps each layer as the wire carried it
(``WireLayer``), as the enclave holds it; ``WireLayer.dense`` widens one to
fp64.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .params import LayerParams, ParameterSet

MAGIC = b"ESMB"
VERSION = 1
FORMAT_DENSE = 0
FORMAT_CSR = 1
FORMAT_NAMES = {FORMAT_DENSE: "dense", FORMAT_CSR: "csr"}


class CodecError(ValueError):
    """Malformed blob: bad magic/version, violated CSR invariants, or layers
    that differ from the published model."""


def schema(params: ParameterSet) -> tuple:
    """(layer id, weight shape, bias shape) per layer: the published-model
    table that decode_layers checks a blob against."""
    return tuple((e.layer_id, e.weight.shape, e.bias.shape) for e in params.entries)


def _layer_header(lid: str, shape: tuple) -> bytes:
    lid_bytes = lid.encode()
    dims = tuple(shape) or (1,)          # a scalar crosses the wire as shape (1,)
    return struct.pack(f"<B{len(lid_bytes)}sB{len(dims)}I",
                       len(lid_bytes), lid_bytes, len(dims), *dims)


def _matrix_view(shape: tuple) -> tuple[int, int]:
    """(rows, cols) of the CSR matrix view of a weight of this shape."""
    return (shape[0] if shape else 1), math.prod(shape[1:])


def _encode(params: ParameterSet, fmt: int, weight_body) -> bytes:
    """The one frame writer: preamble, then per layer its id/dims header,
    weight_body(weight) and the bias trailer."""
    parts = [MAGIC, struct.pack("<BBH", VERSION, fmt, len(params.entries))]
    for e in params.entries:
        parts.append(_layer_header(e.layer_id, e.weight.shape))
        parts += weight_body(e.weight)
        parts.append(struct.pack("<I", e.bias.size))
        parts.append(e.bias.astype("<f4").tobytes())
    return b"".join(parts)


def _csr_body(w: np.ndarray) -> list[bytes]:
    m = w.astype("<f4").reshape(-1)             # nnz decided at fp32 precision
    rows, cols = _matrix_view(w.shape)
    flat = np.flatnonzero(m != 0)               # row-major: cols ascend per row
    row_ptr = np.searchsorted(flat, np.arange(rows + 1) * cols)
    return [struct.pack("<III", rows, cols, flat.size), row_ptr.astype("<u4").tobytes(),
            (flat % cols).astype("<u4").tobytes(), m[flat].tobytes()]


def dense_encode(params: ParameterSet) -> bytes:
    return _encode(params, FORMAT_DENSE, lambda w: [w.astype("<f4").tobytes()])


def csr_encode(params: ParameterSet) -> bytes:
    return _encode(params, FORMAT_CSR, _csr_body)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise CodecError("blob truncated")
        out = self.blob[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize
        return np.frombuffer(self.take(itemsize * count), dtype=dtype)


@dataclass(frozen=True)
class WireLayer:
    """One decoded layer, fp32 values and bias as the wire carried them."""

    layer_id: str
    shape: tuple
    flat: np.ndarray | None    # row-major weight index of each value; None: dense
    values: np.ndarray
    bias: np.ndarray

    def dense(self) -> LayerParams:
        """fp64 weight and bias, zeros wherever the wire stored no value."""
        w = np.zeros(math.prod(self.shape))
        w[slice(None) if self.flat is None else self.flat] = self.values
        return LayerParams(self.layer_id, w.reshape(self.shape), self.bias.astype(np.float64))


def decode_layers(blob: bytes, expect: tuple) -> tuple[tuple[WireLayer, ...], str]:
    """Decode either format against the published layer table ``expect``
    (see schema); returns (layers, format_name), values as the wire sent them."""
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise CodecError("bad magic")
    version, fmt, n_layers = r.unpack("<BBH")
    if version != VERSION:
        raise CodecError(f"unsupported version {version}")
    if fmt not in FORMAT_NAMES:
        raise CodecError(f"unknown format byte {fmt}")
    if n_layers != len(expect):
        raise CodecError(f"{n_layers} layers, the published model has {len(expect)}")
    layers = []
    for lid, shape, bias_shape in expect:
        header = _layer_header(lid, shape)
        if r.take(len(header)) != header:
            raise CodecError(f"layer {lid}: id or dims differ from the published {shape}")
        if fmt == FORMAT_DENSE:
            values, flat = r.array("<f4", math.prod(shape)), None
        else:
            rows, cols = _matrix_view(shape)
            if r.unpack("<II") != (rows, cols):
                raise CodecError(f"layer {lid}: CSR matrix view differs from the "
                                 f"published {rows}x{cols}")
            (nnz,) = r.unpack("<I")
            row_ptr = r.array("<u4", rows + 1)
            col_idx = r.array("<u4", nnz)
            values = r.array("<f4", nnz)
            flat = _csr_flat(lid, rows, cols, row_ptr, col_idx, values)
        if r.unpack("<I") != bias_shape:
            raise CodecError(f"layer {lid}: bias length differs from the published "
                             f"{bias_shape}")
        layers.append(WireLayer(lid, shape, flat, values, r.array("<f4", bias_shape[0])))
    if r.off != len(blob):
        raise CodecError(f"{len(blob) - r.off} trailing bytes")
    return tuple(layers), FORMAT_NAMES[fmt]


def _csr_flat(lid, rows, cols, row_ptr, col_idx, values) -> np.ndarray:
    """Row-major flat index of every stored value; checks the CSR invariants."""
    if row_ptr[0] != 0 or row_ptr[-1] != len(values):
        raise CodecError(f"layer {lid}: row_ptr endpoints invalid")
    row_nnz = np.diff(row_ptr.astype(np.int64))
    if np.any(row_nnz < 0):
        raise CodecError(f"layer {lid}: row_ptr not non-decreasing")
    if len(col_idx) and col_idx.max() >= cols:
        raise CodecError(f"layer {lid}: col_idx out of range")
    # with every col_idx < cols, columns ascend strictly within each row
    # exactly when the row-major flat indices ascend strictly overall
    flat = np.repeat(np.arange(rows, dtype=np.int64) * cols, row_nnz) + col_idx
    if np.any(np.diff(flat) <= 0):
        raise CodecError(f"layer {lid}: col_idx not strictly increasing in a row")
    return flat


def encoded_size(params: ParameterSet, fmt: str) -> int:
    """Exact byte length of the dense_encode or csr_encode blob ("dense" or
    "csr"), computed analytically."""
    total = 4 + 4  # magic + (version, format, layer count)
    for e in params.entries:
        total += len(_layer_header(e.layer_id, e.weight.shape))
        if fmt == "dense":
            total += 4 * e.weight.size
        elif fmt == "csr":
            nnz = int(np.count_nonzero(e.weight.astype("<f4")))
            total += 12 + 4 * (_matrix_view(e.weight.shape)[0] + 1) + 8 * nnz
        else:
            raise ValueError(f"unknown format {fmt!r}")
        total += 4 + 4 * e.bias.size
    return total

