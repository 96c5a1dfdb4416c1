import dataclasses
import tracemalloc

import numpy as np
import pytest

from fedprune import codec, nn, pruning, secure
from fedprune.enclave import (AggregationInput, EnclaveContext, PlaintextUpdate,
                              TrustBoundaryError, enclave_load, fedavg,
                              publish_model)
from reference import (ref_cast, ref_decode, ref_fedavg, ref_frame, ref_seal, ref_wire,
                       same_params)


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


def tampered(enc):
    """enc with the first ciphertext byte inverted."""
    ct = enc.ciphertext
    return dataclasses.replace(enc, ciphertext=bytes([ct[0] ^ 0xFF]) + ct[1:])


class TestContainment:
    def test_plaintext_type_not_constructible_outside(self):
        with pytest.raises(TrustBoundaryError):
            PlaintextUpdate(object(), make_params([[1.0]]))
        with pytest.raises(TrustBoundaryError):
            PlaintextUpdate(None, make_params([[1.0]]))


class TestEnclaveLoad:
    def test_ecall_accounting(self, setup):
        manager, channels, ctx = setup
        publish_model(make_params([[0.0]]), ctx)
        encs = [encrypt(channels, cid, make_params([[float(cid)]]), rnd=0)
                for cid in range(5)]
        agg, rej = enclave_load(encs, ctx, {cid: 10 for cid in range(5)})
        assert ctx.round == 0
        assert len(agg.records) == 5 and not rej

    def test_one_tampered_among_ten(self, setup):
        manager, channels, ctx = setup
        publish_model(make_params([[0.0, 0.0]]), ctx)
        encs = []
        for cid in range(10):
            enc = encrypt(channels, cid, make_params([[1.0, 2.0]]), rnd=0)
            encs.append(tampered(enc) if cid == 4 else enc)
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
        publish_model(make_params([np.zeros(4), np.zeros(3)], ids=("a", "b")), ctx)
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
        assert same_params(fedavg(agg), ref_fedavg(
            [(cid, ref_decode(blobs[cid]), counts[cid]) for cid in (0, 3, 5)]))


class TestOneUploadPerClientPerRound:
    """Each upload is named by (client, round): the enclave loads one per
    client, sealed for the round it published, and the honest uploads of
    the same load average bit for bit as fedavg of them alone."""

    ONES, ZEROS = make_params([[1.0, 1.0, 1.0]]), make_params([[0.0, 0.0, 0.0]])

    def _sealed_outside_channel(self, channel, rnd, nonce=None):
        # ONES as CSR under the client's key: its channel seals once a round
        return secure.EncryptedUpdate.from_bytes(ref_seal(
            channel.sk, channel.client_id, rnd, codec.FORMAT_CSR, codec.csr_encode(self.ONES),
            nonce))

    def _assert_average_alone(self, agg, ctx, honest):
        # honest: client id -> (params, example count)
        assert sorted(r.client_id for r in agg.records) == sorted(honest)
        assert same_params(fedavg(agg), ref_fedavg(
            [(cid, ref_wire(p), n) for cid, (p, n) in honest.items()]))

    def test_double_vote_drops_only_the_second_upload(self, setup):
        manager, channels, ctx = setup
        publish_model(self.ZEROS, ctx)
        encs = [encrypt(channels, 0, self.ONES),
                self._sealed_outside_channel(channels[0], 0),
                encrypt(channels, 1, self.ZEROS)]
        agg, rej = enclave_load(encs, ctx, {0: 10, 1: 10})
        assert [(r.client_id, r.reason) for r in rej] == [(0, "replayed record from client 0")]
        assert np.array_equal(fedavg(agg)["a"].weight, [0.5, 0.5, 0.5])
        self._assert_average_alone(agg, ctx, {0: (self.ONES, 10), 1: (self.ZEROS, 10)})

    def test_record_for_another_round_rejected_before_decryption(self, setup):
        # a future round in round 0, then a stale one in round 1; neither
        # moves the replay mark, so the client's honest upload still loads
        manager, channels, ctx = setup
        publish_model(self.ZEROS, ctx)
        agg, rej = enclave_load([self._sealed_outside_channel(channels[0], 7),
                                 encrypt(channels, 1, self.ZEROS)], ctx, {0: 3, 1: 5})
        assert [(r.client_id, r.reason) for r in rej] == [(0, "sealed for round 7, not 0")]
        self._assert_average_alone(agg, ctx, {1: (self.ZEROS, 5)})
        honest = encrypt(channels, 0, self.ONES)
        agg, rej = enclave_load([honest], ctx, {0: 3, 1: 5})
        assert not rej
        self._assert_average_alone(agg, ctx, {0: (self.ONES, 3)})
        publish_model(self.ZEROS, ctx)
        agg, rej = enclave_load([honest, encrypt(channels, 1, self.ONES, rnd=1)],
                                ctx, {0: 3, 1: 5})
        assert [(r.client_id, r.reason) for r in rej] == [(0, "sealed for round 0, not 1")]
        self._assert_average_alone(agg, ctx, {1: (self.ONES, 5)})

    @pytest.mark.parametrize("nonce_client, nonce_round", [(1, 0), (0, 1)])
    def test_nonce_naming_another_client_or_round_rejected(self, setup, nonce_client,
                                                           nonce_round):
        # the tag verifies under client 0's key; the nonce names another record
        manager, channels, ctx = setup
        publish_model(self.ZEROS, ctx)
        forged = self._sealed_outside_channel(channels[0], 0,
                                              secure.NONCE.pack(nonce_client, nonce_round))
        agg, rej = enclave_load([forged, encrypt(channels, 1, self.ONES)], ctx, {0: 2, 1: 7})
        assert [(r.client_id, r.reason) for r in rej] == [
            (0, "nonce differs from the header's client and round")]
        self._assert_average_alone(agg, ctx, {1: (self.ONES, 7)})


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

        def csr(a, b, bias):
            # layers a (3 x 4) and b (2 x 5) as (row_ptr, col_idx, values), one bias
            return ref_frame("csr", [("a", (3, 4), (3, 4, *a), bias),
                                     ("b", (2, 5), (2, 5, *b), bias)])
        return {
            # client id: (example count, blob)
            4: (3, csr(([0, 1, 3, 4], [0, 1, 3, 3], [-0.0, 0.0, v[0], v[1]]),
                       ([0, 1, 2], [1, 4], [v[2], -0.0]), [v[3], -0.0])),
            1: (7, codec.dense_encode(make_params(
                [np.array([[v[4], -0.0, 0.0, v[5]], [v[0], v[1], -0.0, v[2]],
                           [0.0, v[3], v[4], -0.0]]),
                 np.array([[-0.0, v[5], 0.0, v[0], v[1]], [v[2], v[3], -0.0, v[4], 0.0]])],
                ids=("a", "b")).map(lambda lid, w, b: (w, np.array([v[1], -0.0]))))),
            9: (11, csr(([0, 1, 3, 3], [2, 1, 2], [v[5], v[4], -0.0]),
                        ([0, 0, 0], [], []), [-0.0, v[2]])),
            2: (8, csr(([0, 0, 1, 2], [1, 3], [-v[4], -v[1]]),
                       ([0, 3, 4], [0, 1, 4, 3], [v[3], -v[2], 0.0, v[5]]), [0.0, 0.0])),
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
        # byte for byte, which tells -0.0 from +0.0
        assert same_params(fedavg(agg), ref_fedavg(
            [(cid, ref_decode(blob), n) for cid, (n, blob) in uploads.items()]))

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
        blob = ref_frame("csr", [("a", (3, 4), (3, 4, [0, 1, 2, 2], [1, 1], [2.5, 0.0]), [0.0]),
                                 ("b", (2, 5), (2, 5, [0, 0, 1], [4], [-1.0]), [0.0])])
        agg, rej = enclave_load([channels[0].encrypt_update(blob, 0, codec.FORMAT_CSR)],
                                ctx, {0: 1})
        assert same_params(agg.records[0].update.params, ref_cast(ref_decode(blob), np.float64))


class TestBudgetCountsNonzeroValues:
    def test_stored_zeros_do_not_count_at_the_boundary(self, setup):
        # layer a capped at 2 non-zeros; every upload stores 3 or 2 entries
        manager, channels, ctx = setup
        publish_model(make_params([np.zeros((2, 4))]), ctx)
        ctx.budgets = {"a": 2}
        # (row_ptr, col_idx, values) of each upload's 2 x 4 layer a
        uploads = {0: ([0, 1, 3], [1, 0, 2], [1.0, 0.0, -2.0]),    # explicit 0.0: 2 non-zeros
                   1: ([0, 1, 3], [1, 0, 2], [1.0, -0.0, -2.0]),   # explicit -0.0: 2 non-zeros
                   2: ([0, 1, 2], [1, 2], [1.0, -2.0]),             # exactly at the budget
                   3: ([0, 1, 3], [1, 0, 2], [1.0, 3.0, -2.0])}     # one over
        encs = [channels[cid].encrypt_update(
            ref_frame("csr", [("a", (2, 4), (2, 4, *stored), [0.0])]), 0, codec.FORMAT_CSR)
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
    PEAK = 5_143_492

    def _round(self, scratch_limit, streamed=False, dense=False):
        """A lenet_masked_fanin-sized round: 25 uploads of LeNet-5, projected
        to the CR~87 keep table in CSR or, dense, as a warm-up round sends
        them; returns the context and the load, made in one call or,
        streamed, in one call per upload."""
        from test_pruning import LENET_KEEP_CR87
        manager = secure.KeyManager(seed=0)
        rng = np.random.default_rng(0)
        ctx = EnclaveContext(key_manager=manager, scratch_limit=scratch_limit)
        cfg = pruning.SparsityConfig(keep=LENET_KEEP_CR87)
        model = nn.init_model(nn.lenet5(), 0)
        publish_model(model, ctx)
        ctx.budgets = None if dense else cfg.budgets(model)
        encs = []
        for cid in range(self.CLIENTS):
            channel = secure.attest_and_exchange(cid, manager, rng)
            update = nn.init_model(nn.lenet5(), cid + 1)
            if not dense:
                update = pruning.final_hard_prune(update, cfg)[0]
            encs.append(encrypt({cid: channel}, cid, update, fmt="dense" if dense else "csr"))
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
        ctx, (agg, rej) = self._round(EnclaveContext.scratch_limit)
        assert not rej and len(agg.records) == self.CLIENTS
        # per upload: 250 + 1,500 + 2,201 + 1,000 = 4,951 stored values, each
        # an int64 flat index and an fp32 value, plus 20 + 50 + 500 + 10 fp32
        # biases; then what fedavg holds beside them: an fp64 accumulator of
        # all 431,080 parameters, its fp64 block of 16,384 entries, and 1 KiB
        # for each of the 4 layers and 16 KiB more for its Python objects
        per_upload = 4951 * (8 + 4) + 580 * 4
        fedavg_bytes = 431_080 * 8 + 16_384 * 8 + 1024 * (4 + 16)
        assert ctx.peak_bytes == self.CLIENTS * per_upload + fedavg_bytes == self.PEAK

    def test_one_byte_less_rejects_the_last_upload(self):
        ctx, (agg, rej) = self._round(self.PEAK - 1)
        assert len(agg.records) == self.CLIENTS - 1
        assert [r.client_id for r in rej] == [self.CLIENTS - 1]
        assert "trusted buffer" in rej[0].reason
        assert ctx.peak_bytes == self.PEAK - self.PER_UPLOAD

    def test_streamed_peak_matches_one_call(self):
        ctx, (agg, rej) = self._round(EnclaveContext.scratch_limit, streamed=True)
        assert not rej and len(agg.records) == self.CLIENTS
        assert ctx.held_bytes == self.CLIENTS * self.PER_UPLOAD
        assert ctx.peak_bytes == self.PEAK

    def test_streamed_one_byte_less_rejects_the_last_upload(self):
        ctx, (agg, rej) = self._round(self.PEAK - 1, streamed=True)
        assert [r.client_id for r in agg.records] == list(range(self.CLIENTS - 1))
        assert [r.client_id for r in rej] == [self.CLIENTS - 1]
        assert "trusted buffer" in rej[0].reason
        assert ctx.held_bytes == (self.CLIENTS - 1) * self.PER_UPLOAD
        assert ctx.peak_bytes == self.PEAK - self.PER_UPLOAD

    @pytest.mark.parametrize("dense", [True, False])
    def test_fedavg_working_set_within_its_reserve(self, dense):
        # tracemalloc counts all fedavg allocates: accumulator, block,
        # temporaries and Python objects; the load reserved beside its
        # records the larger of that and the last record's opening
        ctx, (agg, rej) = self._round(EnclaveContext.scratch_limit, dense=dense)
        assert not rej and len(agg.records) == self.CLIENTS
        tracemalloc.start()
        try:
            fedavg(agg)
            used = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 431_080 * 8 < used <= ctx.peak_bytes - ctx.held_bytes


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
            agg, rej = enclave_load([tampered(enc) if cid == 2 else enc], ctx,
                                    {cid: 10 for cid in range(5)})
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
        assert ctx.round == -1
        blob = publish_model(params, ctx)
        assert ctx.round == 0
        assert ctx.schema == codec.schema(params)
        assert codec.decode_layers(blob, ctx.schema)[1] == "dense"
        assert np.array_equal(ref_decode(blob)["a"].weight, params["a"].weight)

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
        # plaintext shortcut: same fp32 wire encoding, no crypto
        assert same_params(fedavg(agg), ref_fedavg(
            [(cid, ref_wire(p), counts[cid]) for cid, p in updates.items()]))
