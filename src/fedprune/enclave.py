"""Emulated trusted enclave on the aggregation server.

Each model publication starts the next round, from 0, and a client's upload
loads once, in the round it was sealed for; the orchestrator times the
crossings.  Decrypted updates only ever exist wrapped in PlaintextUpdate,
which cannot be constructed outside this module's trusted section; it keeps
the layers as the wire carried them (codec.WireLayer), so a sparse upload
costs its non-zeros, and fedavg widens one record at a time.  The trusted
bytes held at once in a round are counted and bounded (see enclave_load).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codec
from .params import LayerParams, ParameterSet
from .secure import HEADER, TAG_SIZE, EncryptedUpdate, KeyManager, SecureChannelError

_TRUSTED_TOKEN = object()


class TrustBoundaryError(RuntimeError):
    pass


class EnclaveMemoryError(RuntimeError):
    pass


class InvalidUpdateError(ValueError):
    """An update with no published model to check it against, sealed for
    another round, whose sealed header names another payload format than its
    blob's, not finite, or with more non-zeros in a layer than its budget."""


class PlaintextUpdate:
    """Decrypted client update; constructible only inside the trusted section."""

    __slots__ = ("client_id", "layers")

    def __init__(self, token, client_id: int, layers: tuple[codec.WireLayer, ...]):
        if token is not _TRUSTED_TOKEN:
            raise TrustBoundaryError(
                "PlaintextUpdate can only be created inside the enclave")
        self.client_id = client_id
        self.layers = layers

    @property
    def params(self) -> ParameterSet:
        """Dense fp64 view, built on each access; fedavg does not use it."""
        return ParameterSet(tuple(map(codec.WireLayer.dense, self.layers)))


@dataclass
class EnclaveContext:
    key_manager: KeyManager
    scratch_limit: int = 256 * 1024 * 1024   # trusted memory budget, bytes
    held_bytes: int = 0                      # bytes of the records kept this round
    peak_bytes: int = 0                      # most trusted bytes held at once this round
    round: int = -1                          # publish_model's count; -1 before the first
    schema: tuple | None = None              # codec.schema of the last published model
    budgets: dict[str, int] | None = None    # per-layer non-zero caps of this round's uploads


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

    Each record is one ecall.  A record sealed for another round than
    ctx.round (so it never reaches the replay mark), a failed decryption (bad
    tag, nonce not the header's, replay, unknown client), a payload that does
    not decode against the last published model's layer table, whose format
    byte differs from the sealed header's payload_format, that holds a
    non-finite value, that has more non-zeros in a layer than ctx.budgets
    allows (a stored 0.0 is not one), or that would take the trusted bytes
    past ctx.scratch_limit is dropped alone, and reported; a second upload
    from a client in a round is a replay, and the first stays.
    Before any model is published every update is rejected.  Trusted bytes
    are the records kept this round, by this call and earlier ones since the
    last publish_model (ctx.held_bytes), plus the larger of the record being
    opened with its plaintext and fedavg's fp64 accumulator; ctx.peak_bytes
    is their peak over the round, so loading a round's uploads one call at a
    time counts the same bytes as loading them in one call.
    """
    records, rejections = [], []
    accumulator = 8 * sum(math.prod(w) + math.prod(b) for _lid, w, b in ctx.schema or ())
    for enc in encs:
        try:
            opening = HEADER.size + 2 * len(enc.ciphertext) - TAG_SIZE   # record + plaintext
            _hold(ctx, ctx.held_bytes + max(opening, accumulator))
            if ctx.schema is None:
                raise InvalidUpdateError("no model published")
            if enc.round != ctx.round:
                raise InvalidUpdateError(f"sealed for round {enc.round}, not {ctx.round}")
            layers, fmt = codec.decode_layers(ctx.key_manager.decrypt_update(enc),
                                              ctx.schema)
            said = codec.FORMAT_NAMES.get(enc.payload_format, f"unknown ({enc.payload_format})")
            if said != fmt:
                raise InvalidUpdateError(f"header format {said} differs from the payload's {fmt}")
            if not all(np.isfinite(a).all() for x in layers for a in (x.values, x.bias)):
                raise InvalidUpdateError("update holds non-finite values")
            for x in layers:
                budget = (ctx.budgets or {}).get(x.layer_id)
                if budget is None:
                    continue
                nnz = np.count_nonzero(x.values != 0)   # faster than over the floats
                if nnz > budget:
                    raise InvalidUpdateError(
                        f"layer {x.layer_id} has {nnz} non-zeros, above its budget of {budget}")
            n = example_counts.get(enc.client_id)
            if n is None or n <= 0:
                raise SecureChannelError(f"no example count for client {enc.client_id}")
            kept = sum(a.nbytes for x in layers for a in (x.flat, x.values, x.bias)
                       if a is not None)
            _hold(ctx, ctx.held_bytes + kept + max(opening, accumulator))
            records.append(AggregationRecord(
                enc.client_id, PlaintextUpdate(_TRUSTED_TOKEN, enc.client_id, layers), n))
            ctx.held_bytes += kept
        except (SecureChannelError, codec.CodecError, EnclaveMemoryError,
                InvalidUpdateError) as exc:
            rejections.append(Rejection(enc.client_id, str(exc)))
    return AggregationInput(tuple(records)), rejections


def _hold(ctx: EnclaveContext, nbytes: int) -> None:
    if nbytes > ctx.scratch_limit:
        raise EnclaveMemoryError(f"{nbytes} bytes would exceed the trusted buffer "
                                 f"({ctx.scratch_limit} bytes)")
    ctx.peak_bytes = max(ctx.peak_bytes, nbytes)


def fedavg(agg: AggregationInput) -> ParameterSet:
    """Example-count-weighted coordinate mean of the client updates.

    Summation runs in ascending client_id order so the result is bit-exact
    regardless of arrival order.  Each layer starts from fp64 +0.0; a record
    adds (count / total) * value, widened to fp64 first, where it sent one.
    That is the dense sum bit for bit: the dense sum's +0.0 elsewhere cannot
    change an accumulator that never holds -0.0.
    """
    if not agg.records:
        raise ValueError("cannot aggregate an empty input")
    recs = sorted(agg.records, key=lambda r: r.client_id)
    total = float(sum(r.example_count for r in recs))
    entries = []
    for i, first in enumerate(recs[0].update.layers):
        w, b = np.zeros(math.prod(first.shape)), np.zeros(first.bias.shape)
        for r in recs:
            x, s = r.update.layers[i], r.example_count / total
            w[slice(None) if x.flat is None else x.flat] += s * x.values.astype(np.float64)
            b += s * x.bias.astype(np.float64)
        entries.append(LayerParams(first.layer_id, w.reshape(first.shape), b))
    return ParameterSet(tuple(entries))


def publish_model(params: ParameterSet, ctx: EnclaveContext) -> bytes:
    """Serialize the global model dense and export it across the boundary;
    one ocall.  Its layer table (codec.schema) is what uploads decode against.
    It starts the next round, ctx.round: the held and peak trusted bytes restart at 0."""
    blob = codec.dense_encode(params)
    if len(blob) > ctx.scratch_limit:
        raise EnclaveMemoryError("published model exceeds trusted buffer")
    ctx.round += 1
    ctx.held_bytes = ctx.peak_bytes = 0
    ctx.schema = codec.schema(params)
    return blob
