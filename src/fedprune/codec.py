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
fp32; in-memory math stays fp64.
"""

from __future__ import annotations

import struct

import numpy as np

from .nn import LayerParams, ParameterSet

MAGIC = b"ESMB"
VERSION = 1
FORMAT_DENSE = 0
FORMAT_CSR = 1
_FORMAT_NAMES = {FORMAT_DENSE: "dense", FORMAT_CSR: "csr"}


class CodecError(ValueError):
    """Malformed blob: bad magic/version or violated CSR invariants."""


def _as_matrix(w: np.ndarray) -> np.ndarray:
    if w.ndim == 0:
        return w.reshape(1, 1)
    if w.ndim == 1:
        return w.reshape(w.shape[0], 1)
    return w.reshape(w.shape[0], -1)


def _f32(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype="<f4")


def encode_params(params: ParameterSet, fmt: str) -> bytes:
    if fmt == "dense":
        return dense_encode(params)
    if fmt == "csr":
        return csr_encode(params)
    raise ValueError(f"unknown format {fmt!r}")


def _layer_header(e: LayerParams) -> bytes:
    lid = e.layer_id.encode()
    dims = e.weight.shape if e.weight.ndim else (1,)
    return struct.pack(f"<B{len(lid)}sB{len(dims)}I", len(lid), lid, len(dims), *dims)


def dense_encode(params: ParameterSet) -> bytes:
    parts = [MAGIC, struct.pack("<BBH", VERSION, FORMAT_DENSE, len(params.entries))]
    for e in params.entries:
        parts.append(_layer_header(e))
        parts.append(_f32(e.weight).tobytes())
        parts.append(struct.pack("<I", e.bias.size))
        parts.append(_f32(e.bias).tobytes())
    return b"".join(parts)


def csr_encode(params: ParameterSet) -> bytes:
    parts = [MAGIC, struct.pack("<BBH", VERSION, FORMAT_CSR, len(params.entries))]
    for e in params.entries:
        parts.append(_layer_header(e))
        m = _as_matrix(_f32(e.weight))          # nnz decided at fp32 precision
        rows, cols = m.shape
        mask = m != 0
        row_ptr = np.zeros(rows + 1, dtype="<u4")
        np.cumsum(mask.sum(axis=1), out=row_ptr[1:])
        r_idx, c_idx = np.nonzero(mask)         # row-major: cols ascend per row
        parts.append(struct.pack("<III", rows, cols, len(c_idx)))
        parts.append(row_ptr.tobytes())
        parts.append(c_idx.astype("<u4").tobytes())
        parts.append(m[r_idx, c_idx].astype("<f4").tobytes())
        parts.append(struct.pack("<I", e.bias.size))
        parts.append(_f32(e.bias).tobytes())
    return b"".join(parts)


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


def decode_params(blob: bytes) -> tuple[ParameterSet, str]:
    """Decode either format; returns (params, format_name), fp64 tensors."""
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise CodecError("bad magic")
    version, fmt, n_layers = r.unpack("<BBH")
    if version != VERSION:
        raise CodecError(f"unsupported version {version}")
    if fmt not in _FORMAT_NAMES:
        raise CodecError(f"unknown format byte {fmt}")
    entries = []
    for _ in range(n_layers):
        (id_len,) = r.unpack("<B")
        lid = r.take(id_len).decode()
        (ndim,) = r.unpack("<B")
        dims = r.unpack(f"<{ndim}I")
        size = int(np.prod(dims))
        if fmt == FORMAT_DENSE:
            w = r.array("<f4", size).astype(np.float64).reshape(dims)
        else:
            rows, cols, nnz = r.unpack("<III")
            if rows * cols != size:
                raise CodecError(f"layer {lid}: matrix view {rows}x{cols} != shape {dims}")
            row_ptr = r.array("<u4", rows + 1)
            col_idx = r.array("<u4", nnz)
            values = r.array("<f4", nnz)
            w = _csr_to_dense(lid, rows, cols, row_ptr, col_idx, values).reshape(dims)
        (bias_len,) = r.unpack("<I")
        b = r.array("<f4", bias_len).astype(np.float64)
        entries.append(LayerParams(lid, w, b))
    if r.off != len(blob):
        raise CodecError(f"{len(blob) - r.off} trailing bytes")
    return ParameterSet(tuple(entries)), _FORMAT_NAMES[fmt]


def _csr_to_dense(lid, rows, cols, row_ptr, col_idx, values) -> np.ndarray:
    if row_ptr[0] != 0 or row_ptr[-1] != len(values):
        raise CodecError(f"layer {lid}: row_ptr endpoints invalid")
    if np.any(np.diff(row_ptr.astype(np.int64)) < 0):
        raise CodecError(f"layer {lid}: row_ptr not non-decreasing")
    if len(col_idx) and col_idx.max() >= cols:
        raise CodecError(f"layer {lid}: col_idx out of range")
    m = np.zeros((rows, cols))
    for i in range(rows):
        lo, hi = int(row_ptr[i]), int(row_ptr[i + 1])
        cs = col_idx[lo:hi].astype(np.int64)
        if np.any(np.diff(cs) <= 0):
            raise CodecError(f"layer {lid}: col_idx not strictly increasing in row {i}")
        m[i, cs] = values[lo:hi].astype(np.float64)
    return m


def csr_decode(blob: bytes) -> ParameterSet:
    params, fmt = decode_params(blob)
    if fmt != "csr":
        raise CodecError(f"expected csr blob, got {fmt}")
    return params


def dense_decode(blob: bytes) -> ParameterSet:
    params, fmt = decode_params(blob)
    if fmt != "dense":
        raise CodecError(f"expected dense blob, got {fmt}")
    return params


def encoded_size(params: ParameterSet, fmt: str) -> int:
    """Exact byte length encode_params would produce, computed analytically."""
    total = 4 + 4  # magic + (version, format, layer count)
    for e in params.entries:
        ndim = e.weight.ndim if e.weight.ndim else 1
        total += 1 + len(e.layer_id.encode()) + 1 + 4 * ndim
        if fmt == "dense":
            total += 4 * e.weight.size
        elif fmt == "csr":
            m = _as_matrix(_f32(e.weight))
            nnz = int(np.count_nonzero(m))
            total += 12 + 4 * (m.shape[0] + 1) + 8 * nnz
        else:
            raise ValueError(f"unknown format {fmt!r}")
        total += 4 + 4 * e.bias.size
    return total

