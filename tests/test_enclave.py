import numpy as np
import pytest

from fedprune import codec, enclave, nn, secure
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
