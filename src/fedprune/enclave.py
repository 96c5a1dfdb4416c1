"""Emulated trusted enclave on the aggregation server.

Boundary crossings are counted: every encrypted update loaded is one ecall
and every model publication one ocall, each bounded by a trusted scratch
buffer.  The orchestrator times the crossings from outside.  Decrypted update
tensors only ever exist wrapped in PlaintextUpdate, which cannot be
constructed outside this module's trusted section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec
from .nn import LayerParams, ParameterSet, check_congruent
from .secure import HEADER, EncryptedUpdate, KeyManager, SecureChannelError

_TRUSTED_TOKEN = object()


class TrustBoundaryError(RuntimeError):
    pass


class EnclaveMemoryError(RuntimeError):
    pass


class InvalidUpdateError(ValueError):
    """An update with no published model to check it against, or not finite."""


class PlaintextUpdate:
    """Decrypted client update; constructible only inside the trusted section."""

    __slots__ = ("client_id", "params")

    def __init__(self, token, client_id: int, params: ParameterSet):
        if token is not _TRUSTED_TOKEN:
            raise TrustBoundaryError(
                "PlaintextUpdate can only be created inside the enclave")
        self.client_id = client_id
        self.params = params


@dataclass
class EnclaveContext:
    key_manager: KeyManager
    scratch_limit: int = 256 * 1024 * 1024   # trusted buffer budget, bytes
    ecall_count: int = 0
    ocall_count: int = 0
    schema: tuple | None = None              # codec.schema of the last published model


@dataclass(frozen=True)
class AggregationRecord:
    client_id: int
    update: PlaintextUpdate
    example_count: int


@dataclass(frozen=True)
class AggregationInput:
    records: tuple[AggregationRecord, ...]


@dataclass(frozen=True)
class Rejection:
    client_id: int
    reason: str


def enclave_load(encs: list[EncryptedUpdate], ctx: EnclaveContext,
                 example_counts: dict[int, int]
                 ) -> tuple[AggregationInput, list[Rejection]]:
    """Decrypt and decode updates inside the trusted section.

    Each record is one ecall.  A failed decryption (bad tag, replay, unknown
    client), a payload that does not decode against the last published
    model's layer table, or one that holds a non-finite value drops that
    client's contribution for the round and is reported; the rest proceed.
    Before any model is published every update is rejected.
    """
    records = []
    rejections = []
    for enc in encs:
        ctx.ecall_count += 1
        try:
            size = HEADER.size + len(enc.ciphertext)
            if size > ctx.scratch_limit:
                raise EnclaveMemoryError(
                    f"update of {size} bytes exceeds trusted buffer "
                    f"({ctx.scratch_limit} bytes)")
            if ctx.schema is None:
                raise InvalidUpdateError("no model published")
            params, _fmt = codec.decode_params(ctx.key_manager.decrypt_update(enc),
                                               ctx.schema)
            if not params.allfinite():
                raise InvalidUpdateError("update holds non-finite values")
            n = example_counts.get(enc.client_id)
            if n is None or n <= 0:
                raise SecureChannelError(f"no example count for client {enc.client_id}")
            records.append(AggregationRecord(
                enc.client_id, PlaintextUpdate(_TRUSTED_TOKEN, enc.client_id, params), n))
        except (SecureChannelError, codec.CodecError, EnclaveMemoryError,
                InvalidUpdateError) as exc:
            rejections.append(Rejection(enc.client_id, str(exc)))
    return AggregationInput(tuple(records)), rejections


def fedavg(agg: AggregationInput) -> ParameterSet:
    """Example-count-weighted coordinate mean of the client updates.

    Summation runs in ascending client_id order so the result is bit-exact
    regardless of arrival order.
    """
    if not agg.records:
        raise ValueError("cannot aggregate an empty input")
    recs = sorted(agg.records, key=lambda r: r.client_id)
    first = recs[0].update.params
    for r in recs[1:]:
        check_congruent(first, r.update.params)
    total = float(sum(r.example_count for r in recs))
    entries = []
    for i, e in enumerate(first.entries):
        w = np.zeros_like(e.weight)
        b = np.zeros_like(e.bias)
        for r in recs:
            le = r.update.params.entries[i]
            w += (r.example_count / total) * le.weight
            b += (r.example_count / total) * le.bias
        entries.append(LayerParams(e.layer_id, w, b))
    return ParameterSet(tuple(entries))


def publish_model(params: ParameterSet, ctx: EnclaveContext) -> bytes:
    """Serialize the global model dense and export it across the boundary;
    one ocall.  Its layer table (codec.schema) is what uploads decode against."""
    ctx.ocall_count += 1
    blob = codec.dense_encode(params)
    if len(blob) > ctx.scratch_limit:
        raise EnclaveMemoryError("published model exceeds trusted buffer")
    ctx.schema = codec.schema(params)
    return blob
