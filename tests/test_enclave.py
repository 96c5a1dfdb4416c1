import struct

import numpy as np
import pytest

from fedprune import codec, enclave, nn, pruning, secure
from fedprune.enclave import (AggregationInput, EnclaveContext, PlaintextUpdate,
                              TrustBoundaryError, enclave_load, fedavg,
                              publish_model)


def make_params(values, ids=("a",)):
    return nn.ParameterSet(tuple(
        nn.LayerParams(lid, np.asarray(v, dtype=float), np.zeros(1))
        for lid, v in zip(ids, values)))


@pytest.fixture
def setup():
    manager = secure.KeyManager(seed=0)
    rng = np.random.default_rng(0)
    channels = {cid: secure.attest_and_exchange(cid, manager, rng)
                for cid in range(10)}
    return manager, channels, EnclaveContext(key_manager=manager)


def encrypt(channels, cid, params, rnd=0, fmt="csr"):
    if fmt == "csr":
        return channels[cid].encrypt_update(codec.csr_encode(params), rnd, codec.FORMAT_CSR)
    return channels[cid].encrypt_update(codec.dense_encode(params), rnd, codec.FORMAT_DENSE)


def csr_upload(layers, bias=(0.0,)):
    """Hand-made CSR blob of 2-D layers, each (id, (rows, cols), {flat index:
    value}), every given value stored as it is, explicit zeros included."""
    parts = [codec.MAGIC, struct.pack("<BBH", codec.VERSION, codec.FORMAT_CSR, len(layers))]
    for lid, (rows, cols), stored in layers:
        flat = sorted(stored)
        row_ptr = np.searchsorted(np.asarray(flat, dtype=int) // cols, np.arange(rows + 1))
        parts += [struct.pack(f"<B{len(lid)}sB2I", len(lid), lid.encode(), 2, rows, cols),
                  struct.pack("<III", rows, cols, len(flat)),
                  np.asarray(row_ptr, dtype="<u4").tobytes(),
                  np.asarray([i % cols for i in flat], dtype="<u4").tobytes(),
                  np.asarray([stored[i] for i in flat], dtype="<f4").tobytes(),
                  struct.pack("<I", len(bias)), np.asarray(bias, dtype="<f4").tobytes()]
    return b"".join(parts)


def dense_fedavg(decoded):
    """The dense fp64 FedAvg that fedavg replaced, kept as its reference:
    (client id, params, example count) triples, each update a dense fp64
    ParameterSet."""
    recs = sorted(decoded, key=lambda r: r[0])
    total = float(sum(n for _cid, _p, n in recs))
    entries = []
    for i, e in enumerate(recs[0][1].entries):
        w = np.zeros_like(e.weight)
        b = np.zeros_like(e.bias)
        for _cid, p, n in recs:
            le = p.entries[i]
            w += (n / total) * le.weight
            b += (n / total) * le.bias
        entries.append(nn.LayerParams(e.layer_id, w, b))
    return nn.ParameterSet(tuple(entries))


class TestContainment:
    def test_plaintext_type_not_constructible_outside(self):
        with pytest.raises(TrustBoundaryError):
            PlaintextUpdate(object(), 0, make_params([[1.0]]))
        with pytest.raises(TrustBoundaryError):
            PlaintextUpdate(None, 0, make_params([[1.0]]))


class TestEnclaveLoad:
    def test_ecall_accounting(self, setup):
        manager, channels, ctx = setup
        publish_model(make_params([[0.0]]), ctx)
        encs = [encrypt(channels, cid, make_params([[float(cid)]]), rnd=0)
                for cid in range(5)]
        agg, rej = enclave_load(encs, ctx, {cid: 10 for cid in range(5)})
        assert ctx.ecall_count == 5
        assert len(agg.records) == 5 and not rej

    def test_one_tampered_among_ten(self, setup):
        manager, channels, ctx = setup
        publish_model(make_params([[0.0, 0.0]]), ctx)
        encs = []
        for cid in range(10):
            enc = encrypt(channels, cid, make_params([[1.0, 2.0]]), rnd=1)
            if cid == 4:
                raw = bytearray(enc.ciphertext)
                raw[0] ^= 0xFF
                enc = secure.EncryptedUpdate(enc.client_id, enc.round,
                                             enc.payload_format, enc.nonce, bytes(raw))
            encs.append(enc)
        agg, rej = enclave_load(encs, ctx, {cid: 10 for cid in range(10)})
        assert len(agg.records) == 9
        assert len(rej) == 1 and rej[0].client_id == 4

    def test_empty_list(self, setup):
        _, _, ctx = setup
        agg, rej = enclave_load([], ctx, {})
        assert agg.records == () and rej == []

    def test_scratch_limit_rejects_oversize(self, setup):
        manager, channels, _ = setup
        ctx = EnclaveContext(key_manager=manager, scratch_limit=64)
        enc = encrypt(channels, 0, make_params([np.ones((50, 50))]), fmt="dense")
        agg, rej = enclave_load([enc], ctx, {0: 1})
        assert not agg.records and "trusted buffer" in rej[0].reason

    def test_nothing_loads_before_a_model_is_published(self, setup):
        manager, channels, ctx = setup
        encs = [encrypt(channels, cid, make_params([[1.0]])) for cid in range(3)]
        agg, rej = enclave_load(encs, ctx, {cid: 10 for cid in range(3)})
        assert not agg.records
        assert [(r.client_id, r.reason) for r in rej] == \
            [(cid, "no model published") for cid in range(3)]

    def test_nonzeros_above_budget_rejected(self, setup):
        # layer a capped at 2 non-zeros, layer b unconstrained; the cap holds
        # whichever format carries the update
        manager, channels, ctx = setup
        publish_model(make_params([np.zeros(4), np.zeros(3)], ids=("a", "b")), ctx)
        ctx.budgets = {"a": 2}
        uploads = {0: ([1.0, 0.0, -2.0, 0.0], "csr"), 1: ([1.0, 3.0, -2.0, 0.0], "csr"),
                   2: ([1.0, 3.0, -2.0, 4.0], "dense"), 3: ([0.0, 0.0, 0.0, 5.0], "dense")}
        encs = [encrypt(channels, cid, make_params([a, [1.0, 2.0, 3.0]], ids=("a", "b")),
                        fmt=fmt) for cid, (a, fmt) in uploads.items()]
        agg, rej = enclave_load(encs, ctx, {cid: 10 for cid in uploads})
        assert [r.client_id for r in agg.records] == [0, 3]
        assert [(r.client_id, r.reason) for r in rej] == [
            (1, "layer a has 3 non-zeros, above its budget of 2"),
            (2, "layer a has 4 non-zeros, above its budget of 2")]
        ctx.budgets = None
        encs = [encrypt(channels, 1, make_params([[1.0] * 4, [1.0] * 3], ids=("a", "b")),
                        rnd=1)]
        agg, rej = enclave_load(encs, ctx, {1: 10})
        assert len(agg.records) == 1 and not rej


    def test_payload_format_must_match_the_header(self, setup):
        # a CSR blob sealed as dense, a dense blob sealed as CSR and an unknown
        # header format are each rejected; the honest uploads average as alone
        manager, channels, ctx = setup
        publish_model(make_params([[0.0, 0.0, 0.0]]), ctx)
        blobs = {cid: (codec.dense_encode if cid % 2 else codec.csr_encode)(
            make_params([[cid + 0.1, 0.0, -cid / 3]])) for cid in range(6)}
        sealed_as = {0: codec.FORMAT_CSR, 1: codec.FORMAT_CSR, 2: codec.FORMAT_DENSE,
                     3: codec.FORMAT_DENSE, 4: 7, 5: codec.FORMAT_DENSE}
        encs = [channels[cid].encrypt_update(blobs[cid], 0, sealed_as[cid]) for cid in range(6)]
        counts = {cid: 3 + cid for cid in range(6)}
        agg, rej = enclave_load(encs, ctx, counts)
        assert [(r.client_id, r.reason) for r in rej] == [
            (1, "header format csr differs from the payload's dense"),
            (2, "header format dense differs from the payload's csr"),
            (4, "header format unknown (7) differs from the payload's csr")]
        assert [r.client_id for r in agg.records] == [0, 3, 5]
        want = dense_fedavg([(cid, codec.decode_params(blobs[cid], ctx.schema)[0], counts[cid])
                             for cid in (0, 3, 5)])
        for g, w in zip(fedavg(agg).entries, want.entries):
            assert g.weight.tobytes() == w.weight.tobytes()
            assert g.bias.tobytes() == w.bias.tobytes()


class TestFedavg:
    def _record(self, cid, params, n):
        # build through the real trusted path
        manager = secure.KeyManager(seed=cid)
        rng = np.random.default_rng(cid)
        ch = secure.attest_and_exchange(cid, manager, rng)
        ctx = EnclaveContext(key_manager=manager)
        publish_model(params, ctx)
        enc = ch.encrypt_update(codec.dense_encode(params), 0, codec.FORMAT_DENSE)
        agg, rej = enclave_load([enc], ctx, {cid: n})
        assert not rej
        return agg.records[0]

    def test_equal_weight_mean(self):
        recs = (self._record(0, make_params([[1.0, 2.0]]), 5),
                self._record(1, make_params([[3.0, 4.0]]), 5))
        out = fedavg(AggregationInput(recs))
        assert np.allclose(out["a"].weight, [2.0, 3.0])

    def test_idempotent_on_identical_updates(self):
        p = make_params([[0.5, -1.5, 2.0]])
        recs = tuple(self._record(cid, p, 600) for cid in range(4))
        out = fedavg(AggregationInput(recs))
        assert np.allclose(out["a"].weight, np.float32([0.5, -1.5, 2.0]))

    def test_balanced_weights_reduce_to_plain_mean(self):
        ps = [make_params([[float(i), 1.0]]) for i in range(10)]
        recs = tuple(self._record(i, ps[i], 600) for i in range(10))
        out = fedavg(AggregationInput(recs))
        assert np.allclose(out["a"].weight, [4.5, 1.0])

    def test_weighted(self):
        recs = (self._record(0, make_params([[0.0]]), 1),
                self._record(1, make_params([[4.0]]), 3))
        out = fedavg(AggregationInput(recs))
        assert np.allclose(out["a"].weight, [3.0])

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(5)
        ps = [make_params([rng.normal(size=(7, 3))]) for _ in range(6)]
        ns = [int(n) for n in rng.integers(1, 1000, size=6)]
        recs = [self._record(i, ps[i], ns[i]) for i in range(6)]
        a = fedavg(AggregationInput(tuple(recs)))
        b = fedavg(AggregationInput(tuple(reversed(recs))))
        assert np.array_equal(a["a"].weight, b["a"].weight)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fedavg(AggregationInput(()))


class TestFedavgMatchesDense:
    """fedavg over compact records equals the dense fp64 sum bit for bit."""

    SHAPES = {"a": (3, 4), "b": (2, 5)}
    # fp32 values whose product with 3/29, 7/29 or 11/29 rounds differently in
    # fp32 than in fp64, so multiplying before widening shows
    V = np.float32([0.1, 1 / 3, -2.7182817, 1e-7, 123.456, -0.33333334])

    def _hand_made(self):
        v = [float(x) for x in self.V]
        return {
            # client id: (example count, blob)
            4: (3, csr_upload([("a", (3, 4), {0: -0.0, 5: 0.0, 7: v[0], 11: v[1]}),
                               ("b", (2, 5), {1: v[2], 9: -0.0})], bias=(v[3], -0.0))),
            1: (7, codec.dense_encode(make_params(
                [np.array([[v[4], -0.0, 0.0, v[5]], [v[0], v[1], -0.0, v[2]],
                           [0.0, v[3], v[4], -0.0]]),
                 np.array([[-0.0, v[5], 0.0, v[0], v[1]], [v[2], v[3], -0.0, v[4], 0.0]])],
                ids=("a", "b")).map(lambda lid, w, b: (w, np.array([v[1], -0.0]))))),
            9: (11, csr_upload([("a", (3, 4), {2: v[5], 5: v[4], 6: -0.0}),
                                ("b", (2, 5), {})], bias=(-0.0, v[2]))),
            2: (8, csr_upload([("a", (3, 4), {5: -v[4], 11: -v[1]}),
                               ("b", (2, 5), {0: v[3], 1: -v[2], 4: 0.0, 8: v[5]})],
                              bias=(0.0, 0.0))),
        }

    @pytest.mark.parametrize("clients", [(4, 1, 9, 2), (4, 9, 2), (9, 2), (1,), (2,)])
    def test_bit_exact(self, setup, clients):
        manager, channels, ctx = setup
        uploads = {cid: u for cid, u in self._hand_made().items() if cid in clients}
        publish_model(make_params([np.zeros(s_) for s_ in self.SHAPES.values()],
                                  ids=tuple(self.SHAPES)).map(
            lambda lid, w, b: (w, np.zeros(2))), ctx)
        encs = [channels[cid].encrypt_update(
            blob, 0, codec.FORMAT_CSR if blob[5] == codec.FORMAT_CSR else codec.FORMAT_DENSE)
            for cid, (_n, blob) in uploads.items()]
        agg, rej = enclave_load(encs, ctx, {cid: n for cid, (n, _b) in uploads.items()})
        assert not rej and len(agg.records) == len(uploads)
        want = dense_fedavg([(cid, codec.decode_params(blob, ctx.schema)[0], n)
                             for cid, (n, blob) in uploads.items()])
        got = fedavg(agg)
        for g, w in zip(got.entries, want.entries):
            assert g.layer_id == w.layer_id
            for have, ref in ((g.weight, w.weight), (g.bias, w.bias)):
                assert have.dtype == ref.dtype and have.shape == ref.shape
                assert have.tobytes() == ref.tobytes()      # tells -0.0 from +0.0

    def test_values_catch_an_fp32_multiply(self):
        for n in (3, 7, 8, 11):
            s = n / 29
            assert (s * self.V).dtype == np.float32
            assert not np.array_equal((s * self.V).astype(np.float64),
                                      s * self.V.astype(np.float64))

    def test_params_view_is_the_dense_decode(self, setup):
        manager, channels, ctx = setup
        publish_model(make_params([np.zeros((3, 4)), np.zeros((2, 5))],
                                  ids=("a", "b")), ctx)
        blob = csr_upload([("a", (3, 4), {1: 2.5, 5: 0.0}), ("b", (2, 5), {9: -1.0})])
        agg, rej = enclave_load([channels[0].encrypt_update(blob, 0, codec.FORMAT_CSR)],
                                ctx, {0: 1})
        view, (want, _fmt) = agg.records[0].update.params, codec.decode_params(blob, ctx.schema)
        for a, b in zip(view.entries, want.entries):
            assert a.weight.tobytes() == b.weight.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()


class TestBudgetCountsNonzeroValues:
    def test_stored_zeros_do_not_count_at_the_boundary(self, setup):
        # layer a capped at 2 non-zeros; every upload stores 3 or 2 entries
        manager, channels, ctx = setup
        publish_model(make_params([np.zeros((2, 4))]), ctx)
        ctx.budgets = {"a": 2}
        uploads = {0: {1: 1.0, 4: 0.0, 6: -2.0},     # explicit 0.0: 2 non-zeros
                   1: {1: 1.0, 4: -0.0, 6: -2.0},    # explicit -0.0: 2 non-zeros
                   2: {1: 1.0, 6: -2.0},              # exactly at the budget
                   3: {1: 1.0, 4: 3.0, 6: -2.0}}      # one over
        encs = [channels[cid].encrypt_update(csr_upload([("a", (2, 4), stored)]), 0,
                                             codec.FORMAT_CSR)
                for cid, stored in uploads.items()]
        agg, rej = enclave_load(encs, ctx, {cid: 1 for cid in uploads})
        assert [r.client_id for r in agg.records] == [0, 1, 2]
        assert [(r.client_id, r.reason) for r in rej] == [
            (3, "layer a has 3 non-zeros, above its budget of 2")]


    def test_negative_zeros_in_a_dense_upload_do_not_count(self, setup):
        # layer a capped at 2 non-zeros, layer b unconstrained and full
        manager, channels, ctx = setup
        publish_model(make_params([np.zeros(4), np.zeros(3)], ids=("a", "b")), ctx)
        ctx.budgets = {"a": 2}
        uploads = {0: [1.0, -0.0, -2.0, -0.0], 1: [-0.0, -0.0, -0.0, -0.0],
                   2: [1.0, -0.0, -2.0, 3.0]}
        encs = [encrypt(channels, cid, make_params([a, [1.0, -2.0, 3.0]], ids=("a", "b")),
                        fmt="dense") for cid, a in uploads.items()]
        agg, rej = enclave_load(encs, ctx, {cid: 1 for cid in uploads})
        assert [r.client_id for r in agg.records] == [0, 1]
        assert [(r.client_id, r.reason) for r in rej] == [
            (2, "layer a has 3 non-zeros, above its budget of 2")]


class TestTrustedBytes:
    CLIENTS = 25
    PER_UPLOAD = 4951 * (8 + 4) + 580 * 4     # see test_peak_matches_hand_count

    def _cr87_round(self, scratch_limit, streamed=False):
        """A lenet_masked_fanin-sized CSR round: 25 uploads of LeNet-5
        projected to the CR~87 keep table; returns the context and the load,
        made in one call or, streamed, in one call per upload."""
        from test_pruning import LENET_KEEP_CR87
        manager = secure.KeyManager(seed=0)
        rng = np.random.default_rng(0)
        ctx = EnclaveContext(key_manager=manager, scratch_limit=scratch_limit)
        cfg = pruning.SparsityConfig(keep=LENET_KEEP_CR87)
        model = nn.init_model(nn.lenet5(), 0)
        publish_model(model, ctx)
        ctx.budgets = cfg.budgets(model)
        encs = []
        for cid in range(self.CLIENTS):
            channel = secure.attest_and_exchange(cid, manager, rng)
            update = pruning.final_hard_prune(nn.init_model(nn.lenet5(), cid + 1), cfg)[0]
            encs.append(channel.encrypt_update(codec.csr_encode(update), 0, codec.FORMAT_CSR))
        counts = {cid: 10 for cid in range(self.CLIENTS)}
        if not streamed:
            return ctx, enclave_load(encs, ctx, counts)
        records, rejections = [], []
        for enc in encs:
            agg, rej = enclave_load([enc], ctx, counts)
            records += agg.records
            rejections += rej
        return ctx, (AggregationInput(tuple(records)), rejections)

    def test_peak_matches_hand_count(self):
        ctx, (agg, rej) = self._cr87_round(EnclaveContext.scratch_limit)
        assert not rej and len(agg.records) == self.CLIENTS
        # per upload: 250 + 1,500 + 2,201 + 1,000 = 4,951 stored values, each
        # an int64 flat index and an fp32 value, plus 20 + 50 + 500 + 10 fp32
        # biases; then one fp64 accumulator of all 431,080 parameters
        per_upload = 4951 * (8 + 4) + 580 * 4
        accumulator = 431_080 * 8
        assert ctx.peak_bytes == self.CLIENTS * per_upload + accumulator == 4_991_940

    def test_one_byte_less_rejects_the_last_upload(self):
        ctx, (agg, rej) = self._cr87_round(4_991_939)
        assert len(agg.records) == self.CLIENTS - 1
        assert [r.client_id for r in rej] == [self.CLIENTS - 1]
        assert "trusted buffer" in rej[0].reason
        assert ctx.peak_bytes == 4_991_940 - (4951 * 12 + 580 * 4)

    def test_streamed_peak_matches_one_call(self):
        ctx, (agg, rej) = self._cr87_round(EnclaveContext.scratch_limit, streamed=True)
        assert not rej and len(agg.records) == self.CLIENTS
        assert ctx.held_bytes == self.CLIENTS * self.PER_UPLOAD
        assert ctx.peak_bytes == 4_991_940

    def test_streamed_one_byte_less_rejects_the_last_upload(self):
        ctx, (agg, rej) = self._cr87_round(4_991_939, streamed=True)
        assert [r.client_id for r in agg.records] == list(range(self.CLIENTS - 1))
        assert [r.client_id for r in rej] == [self.CLIENTS - 1]
        assert "trusted buffer" in rej[0].reason
        assert ctx.held_bytes == (self.CLIENTS - 1) * self.PER_UPLOAD
        assert ctx.peak_bytes == 4_991_940 - self.PER_UPLOAD


class TestStreamedRound:
    """A round loads its uploads one call each; the trusted bytes of the
    records kept carry from call to call until the next publication."""

    KEPT = 2 * (8 + 4) + 4      # two CSR values with int64 indices, one fp32 bias

    def test_tampered_upload_mid_round_rejected_alone(self, setup):
        manager, channels, ctx = setup
        publish_model(make_params([[0.0, 0.0]]), ctx)
        records, rejections, held = [], [], []
        for cid in range(5):
            enc = encrypt(channels, cid, make_params([[1.0, 2.0]]))
            if cid == 2:
                raw = bytearray(enc.ciphertext)
                raw[0] ^= 0xFF
                enc = secure.EncryptedUpdate(enc.client_id, enc.round,
                                             enc.payload_format, enc.nonce, bytes(raw))
            agg, rej = enclave_load([enc], ctx, {cid: 10 for cid in range(5)})
            records += agg.records
            rejections += rej
            held.append(ctx.held_bytes)
        assert [r.client_id for r in records] == [0, 1, 3, 4]
        assert [r.client_id for r in rejections] == [2]
        assert held == [k * self.KEPT for k in (1, 2, 2, 3, 4)]

    def test_publish_restarts_held_and_peak_bytes(self, setup):
        manager, channels, ctx = setup
        params = make_params([[0.0, 0.0]])
        peaks = []
        for rnd in range(2):
            publish_model(params, ctx)
            assert ctx.held_bytes == ctx.peak_bytes == 0
            agg, rej = enclave_load([encrypt(channels, 0, make_params([[1.0, 2.0]]), rnd)],
                                    ctx, {0: 10})
            assert not rej and ctx.held_bytes == self.KEPT
            peaks.append(ctx.peak_bytes)
        assert peaks[0] == peaks[1] > self.KEPT


class TestPublish:
    def test_publish_and_decode(self, setup):
        _, _, ctx = setup
        params = make_params([np.arange(6.0).reshape(2, 3)])
        blob = publish_model(params, ctx)
        assert ctx.ocall_count == 1
        assert ctx.schema == codec.schema(params)
        decoded, fmt = codec.decode_params(blob, ctx.schema)
        assert fmt == "dense"
        assert np.array_equal(decoded["a"].weight, params["a"].weight)

    def test_all_clients_identical_bytes(self, setup):
        _, _, ctx = setup
        params = make_params([np.ones((3, 3))])
        blob = publish_model(params, ctx)
        copies = [bytes(blob) for _ in range(5)]
        assert all(c == blob for c in copies)


class TestEncryptedPathEquivalence:
    def test_matches_plaintext_shortcut(self):
        rng = np.random.default_rng(11)
        manager = secure.KeyManager(seed=1)
        crng = np.random.default_rng(2)
        channels = {cid: secure.attest_and_exchange(cid, manager, crng)
                    for cid in range(8)}
        ctx = EnclaveContext(key_manager=manager)
        updates = {cid: make_params([rng.normal(size=(5, 4)),
                                     rng.normal(size=(4,))], ids=("w1", "w2"))
                   for cid in range(8)}
        counts = {cid: int(rng.integers(1, 400)) for cid in range(8)}

        publish_model(updates[0], ctx)
        encs = [encrypt(channels, cid, updates[cid], rnd=0, fmt="dense")
                for cid in range(8)]
        agg, rej = enclave_load(encs, ctx, counts)
        assert not rej
        via_crypto = fedavg(agg)

        # plaintext shortcut: same fp32 wire encoding, no crypto
        total = sum(counts.values())
        expect = None
        for cid in sorted(updates):
            p, _ = codec.decode_params(codec.dense_encode(updates[cid]),
                                       codec.schema(updates[cid]))
            scaled = p.map(lambda lid, w, b: (w * (counts[cid] / total),
                                              b * (counts[cid] / total)))
            expect = scaled if expect is None else nn.ParameterSet(tuple(
                nn.LayerParams(a.layer_id, a.weight + b_.weight, a.bias + b_.bias)
                for a, b_ in zip(expect.entries, scaled.entries)))
        for ea, eb in zip(via_crypto.entries, expect.entries):
            assert np.array_equal(ea.weight, eb.weight)
