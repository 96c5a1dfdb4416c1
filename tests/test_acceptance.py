"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 7-9 need the real MNIST IDX files on disk.  This sandbox has no
network access and the package index mirror carries no MNIST wheel, so those
tests skip loudly unless ESMFL_DATA_DIR points at a directory holding the
four IDX files.  Run them on a machine with the data to check the accuracy
targets; everything else runs everywhere.
"""

import itertools
import time

import numpy as np
import pytest

from fedprune import codec, enclave, nn, pruning, secure
from fedprune.datasets import mnist_available
from fedprune.federation import (ExperimentConfig, partition_noniid,
                                 run_experiment, saving_percent)
from fedprune.pruning import SparsityConfig, euclidean_project

from test_nn import finite_diff_grad, max_rel_err
from test_pruning import LENET_KEEP_CR10, LENET_KEEP_CR87

MNIST_SKIP = ("MNIST IDX files not found: this sandbox has no network access "
              "and no local copy. Set ESMFL_DATA_DIR to a directory with the "
              "four IDX files to run the accuracy-target checks.")


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n:2d}: {status} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# -------------------------------------------------------------------------
# Property-based criteria
# -------------------------------------------------------------------------

def test_criterion_01_projection_oracle():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    for _ in range(1000):
        size = int(rng.integers(1, 13))
        t = np.round(rng.normal(size=size) * rng.choice([1.0, 100.0]), 2)
        k = int(rng.integers(1, size + 1))
        got = euclidean_project(t, k)

        best_d, best_support = None, None
        for support in itertools.combinations(range(size), k):
            cand = np.zeros(size)
            cand[list(support)] = t[list(support)]
            d = float(np.sum((t - cand) ** 2))
            if best_d is None or d < best_d - 1e-12:
                best_d, best_support = d, support
        # tie rule: among equal-magnitude candidates keep the lowest index
        order = np.argsort(-np.abs(t), kind="stable")
        rule_support = tuple(sorted(order[:k]))
        got_support = tuple(np.flatnonzero(got).tolist()) if k < size \
            else tuple(range(size))
        assert float(np.sum((t - got) ** 2)) == pytest.approx(best_d, abs=1e-12)
        assert got_support == rule_support
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 10.0,
           f"1000 exhaustive projection oracles matched in {elapsed:.2f}s")


def test_criterion_02_gradient_checks():
    archs = {
        "dense+relu": nn.mlp((6, 5, 3)),
        "conv+pool+flatten": nn.ModelArch(
            (nn.Conv2d("c1", 2, 3, 3), nn.ReLU(), nn.MaxPool(2),
             nn.Flatten(), nn.Dense("f1", 12, 3)), (2, 6, 6), 3),
        "strided conv": nn.ModelArch(
            (nn.Conv2d("c1", 1, 2, 3, stride=2), nn.Flatten(),
             nn.Dense("f1", 8, 2)), (1, 5, 5), 2),
    }
    rng = np.random.default_rng(7)
    worst = 0.0
    for name, arch in archs.items():
        params = nn.init_model(arch, 3)
        x = rng.normal(size=(4,) + arch.input_shape)
        y = rng.integers(0, arch.num_classes, size=4)
        batch = nn.Batch(x, y)
        analytic = nn.backward(arch, params, batch)
        numeric = finite_diff_grad(arch, params, batch, h=1e-5)
        err = max_rel_err(analytic, numeric)
        assert err < 1e-4, f"{name}: rel err {err}"
        worst = max(worst, err)
    report(2, worst < 1e-4, f"all layer types pass; worst rel err {worst:.2e}")


def test_criterion_03_encrypted_path_equivalence():
    manager = secure.KeyManager(seed=2)
    rng = np.random.default_rng(2)
    channels = {cid: secure.attest_and_exchange(cid, manager, rng)
                for cid in range(8)}
    ctx = enclave.EnclaveContext(key_manager=manager)
    arch = nn.mlp((5, 4, 2))
    enclave.publish_model(nn.init_model(arch, 0), ctx)

    for trial in range(50):
        cids = sorted(rng.choice(8, size=int(rng.integers(1, 6)),
                                 replace=False).tolist())
        updates, counts, encs = {}, {}, []
        for cid in cids:
            p = nn.init_model(arch, 1000 * trial + cid)
            updates[cid] = p
            counts[cid] = int(rng.integers(1, 500))
            wire = channels[cid].encrypt_update(
                codec.dense_encode(p), trial, codec.FORMAT_DENSE).to_bytes()
            encs.append(secure.EncryptedUpdate.from_bytes(wire))
        agg, rej = enclave.enclave_load(encs, ctx, counts)
        assert not rej
        got = enclave.fedavg(agg)

        # plaintext reference at the fp32 wire precision, same client order
        quant = {cid: codec.decode_params(codec.dense_encode(p), codec.schema(p))[0]
                 for cid, p in updates.items()}
        total = float(sum(counts.values()))
        for i, entry in enumerate(got.entries):
            ref_w = np.zeros_like(entry.weight)
            ref_b = np.zeros_like(entry.bias)
            for c in cids:
                ref_w += (counts[c] / total) * quant[c].entries[i].weight
                ref_b += (counts[c] / total) * quant[c].entries[i].bias
            assert np.array_equal(entry.weight, ref_w)
            assert np.array_equal(entry.bias, ref_b)

    # single-bit tamper sweep over one full wire message
    p = nn.init_model(arch, 999)
    wire = channels[0].encrypt_update(
        codec.dense_encode(p), 60, codec.FORMAT_DENSE).to_bytes()
    rejected = 0
    for pos in range(len(wire)):
        for bit in range(8):
            raw = bytearray(wire)
            raw[pos] ^= 1 << bit
            try:
                enc = secure.EncryptedUpdate.from_bytes(bytes(raw))
            except secure.SecureChannelError:
                rejected += 1
                continue
            agg, rej = enclave.enclave_load([enc], ctx, {enc.client_id: 1})
            assert not agg.records
            rejected += 1
    report(3, rejected == len(wire) * 8,
           f"50 client sets bit-exact; {rejected} single-bit tampers rejected")


def test_criterion_04_csr_roundtrip_and_size():
    rng = np.random.default_rng(4)
    for trial in range(200):
        shape = tuple(int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 4))))
        density = float(rng.uniform(0.0, 1.0))
        w = rng.normal(size=shape).astype(np.float32).astype(float)
        w[rng.random(size=shape) > density] = 0.0
        p = nn.ParameterSet((nn.LayerParams(
            "layer", w, rng.normal(size=shape[0]).astype(np.float32).astype(float)),))
        blob = codec.csr_encode(p)
        back, fmt = codec.decode_params(blob, codec.schema(p))
        assert fmt == "csr"
        assert np.array_equal(back["layer"].weight, p["layer"].weight)
        assert np.array_equal(back["layer"].bias, p["layer"].bias)

        rows = shape[0]                               # matrix view is (d0, -1)
        nnz = int(np.count_nonzero(w))
        expect = (8                                   # global header
                  + 1 + 5 + 1 + 4 * len(shape)        # id + dims
                  + 12 + 4 * (rows + 1) + 8 * nnz     # csr counters + arrays
                  + 4 + 4 * shape[0])                 # bias
        assert len(blob) == expect == codec.encoded_size(p, "csr")
    report(4, True, "200 random CSR roundtrips identical, sizes exact")


def test_criterion_05_accounting_oracle():
    cfg = ExperimentConfig(
        arch="mlp", arch_params={"dims": (6, 4, 3)},
        dataset="synthetic",
        dataset_params={"num_train": 60, "num_test": 30,
                        "num_features": 6, "num_classes": 3},
        num_clients=2, clients_per_round=2, local_epochs=1, batch_size=10,
        warmup_rounds=3, pruning_rounds=0, mode="dense", seed=1)
    res = run_experiment(cfg)

    # hand count.  dense blob: 8 global header
    #   fc1: 1+3 id, 1 ndim, 8 dims, 6*4*4 values, 4 bias len, 4*4 bias = 129
    #   fc2: 1+3 id, 1 ndim, 8 dims, 4*3*4 values, 4 bias len, 3*4 bias = 77
    blob = 8 + 129 + 77
    up_wire = secure.HEADER.size + blob + secure.TAG_SIZE
    expect_up = 3 * 2 * up_wire
    expect_down = 3 * 2 * blob
    got_up = sum(m.bytes_up for m in res.metrics)
    got_down = sum(m.bytes_down for m in res.metrics)
    ok = (got_up == expect_up and got_down == expect_down
          and sum(m.dense_bytes_up for m in res.metrics) == expect_up)
    report(5, ok, f"3-round trace: {got_up}B up / {got_down}B down == hand sum")


def test_criterion_06_admm_residual():
    # quadratic toy: minimize 0.5||W - A||^2 s.t. card(W) <= k, so the
    # W-step has the closed form W = (A + rho (Z - U)) / (1 + rho).
    # rho is set on the order of the loss curvature; much smaller values
    # make the projection support limit-cycle instead of locking in.
    rng = np.random.default_rng(6)
    a = rng.normal(size=(8, 8))
    cfg = SparsityConfig(keep={"a": 0.25}, rho=1.0)
    params = nn.ParameterSet((nn.LayerParams("a", a.copy(), np.zeros(1)),))
    state = pruning.admm_init(params, cfg)
    residuals = []
    for _ in range(50):
        w = (a + cfg.rho * (state.z["a"].dense() - state.u["a"])) / (1.0 + cfg.rho)
        params = nn.ParameterSet((nn.LayerParams("a", w, np.zeros(1)),))
        state = pruning.admm_update(params, state, cfg)
        residuals.append(float(np.linalg.norm(w - state.z["a"].dense())))
    tail = residuals[-10:]
    ok = all(b <= a_ + 1e-12 for a_, b in zip(tail, tail[1:]))
    report(6, ok, f"||W-Z|| tail {tail[0]:.2e} -> {tail[-1]:.2e}, non-increasing")


# -------------------------------------------------------------------------
# Desk-scale reproduction
# -------------------------------------------------------------------------

def _mnist_cfg(keep, partition="iid", mode="admm", seed=0):
    return ExperimentConfig(
        arch="lenet5", dataset="mnist",
        num_clients=100, clients_per_round=10, local_epochs=5, batch_size=10,
        lr=0.01, momentum=0.9, partition=partition,
        mode=mode, warmup_rounds=10, pruning_rounds=50, admm_stage_rounds=3,
        sparsity=SparsityConfig(keep=keep, rho=1e-3), seed=seed,
        eval_examples=2000)


@pytest.mark.skipif(not mnist_available(), reason=MNIST_SKIP)
def test_criterion_07_mnist_iid_accuracy():
    res10 = run_experiment(_mnist_cfg(LENET_KEEP_CR10))
    res87 = run_experiment(_mnist_cfg(LENET_KEEP_CR87))
    detail = (f"IID acc {res10.final_accuracy:.4f} @ CR {res10.compression_rate:.2f}, "
              f"{res87.final_accuracy:.4f} @ CR {res87.compression_rate:.2f}")
    report(7, res10.final_accuracy >= 0.975 and res87.final_accuracy >= 0.960,
           detail)


@pytest.mark.skipif(not mnist_available(), reason=MNIST_SKIP)
def test_criterion_08_mnist_noniid_accuracy():
    res10 = run_experiment(_mnist_cfg(LENET_KEEP_CR10, partition="noniid"))
    res87 = run_experiment(_mnist_cfg(LENET_KEEP_CR87, partition="noniid"))
    detail = (f"non-IID acc {res10.final_accuracy:.4f} @ CR "
              f"{res10.compression_rate:.2f}, {res87.final_accuracy:.4f} @ CR "
              f"{res87.compression_rate:.2f}")
    report(8, res10.final_accuracy >= 0.955 and res87.final_accuracy >= 0.910,
           detail)


@pytest.mark.skipif(not mnist_available(), reason=MNIST_SKIP)
def test_criterion_09_admm_beats_masked_at_cr87():
    admm, masked = [], []
    for seed in (0, 1, 2):
        admm.append(run_experiment(
            _mnist_cfg(LENET_KEEP_CR87, seed=seed)).final_accuracy)
        masked.append(run_experiment(
            _mnist_cfg(LENET_KEEP_CR87, mode="masked", seed=seed)).final_accuracy)
    detail = (f"per-seed admm {['%.4f' % a for a in admm]} vs "
              f"masked {['%.4f' % a for a in masked]}")
    report(9, float(np.mean(admm)) >= float(np.mean(masked)), detail)


def _lenet_saving_run(keep):
    cfg = ExperimentConfig(
        arch="lenet5", dataset="synthetic-images",
        dataset_params={"num_train": 160, "num_test": 48, "channels": 1,
                        "side": 28, "num_classes": 10},
        num_clients=4, clients_per_round=2, local_epochs=1, batch_size=10,
        warmup_rounds=1, pruning_rounds=12, admm_stage_rounds=1,
        sparsity=SparsityConfig(keep=keep, rho=1e-3), seed=0,
        eval_examples=16)
    return run_experiment(cfg)


def test_criterion_10_communication_saving():
    s10 = saving_percent(_lenet_saving_run(LENET_KEEP_CR10).metrics)
    s87 = saving_percent(_lenet_saving_run(LENET_KEEP_CR87).metrics)
    report(10, s10 >= 30.0 and s87 > s10,
           f"pruning-phase saving {s10:.2f}% at CR~10, {s87:.2f}% at CR~87")


def _timed_run(mode):
    keep = {"fc1": 0.1, "fc2": 0.1} if mode == "admm" else None
    cfg = ExperimentConfig(
        arch="mlp", arch_params={"dims": (400, 200, 10)},
        dataset="synthetic",
        dataset_params={"num_train": 200, "num_test": 60,
                        "num_features": 400, "num_classes": 10},
        num_clients=4, clients_per_round=2, local_epochs=1, batch_size=10,
        warmup_rounds=1, pruning_rounds=5, admm_stage_rounds=1,
        mode=mode, sparsity=SparsityConfig(keep=keep) if keep else None,
        seed=0, bandwidth_mbps=0.5, eval_examples=32)
    return run_experiment(cfg)


def test_criterion_11_timing_structure():
    # wall-clock measurement: allow a couple of retries so a transient host
    # preemption landing between two timed sections does not fail the run
    last = ""
    for attempt in range(3):
        sparse = _timed_run("admm")
        dense = _timed_run("dense")
        gaps = [abs(m.component_sum() - m.total_s) / m.total_s
                for res in (sparse, dense) for m in res.metrics]
        mean_sparse = float(np.mean([m.total_s for m in sparse.metrics]))
        mean_dense = float(np.mean([m.total_s for m in dense.metrics]))
        last = (f"worst component gap {100 * max(gaps):.2f}%; mean round "
                f"{mean_sparse:.3f}s sparse vs {mean_dense:.3f}s dense")
        if max(gaps) <= 0.05 and mean_sparse < mean_dense:
            report(11, True, last + f" (attempt {attempt + 1})")
            return
    report(11, False, last)


def test_criterion_12_cifar_scale_substitute():
    # partitioning invariants at CIFAR-10 scale (200 shards x 250, 2/client)
    labels = np.random.default_rng(12).integers(0, 10, size=50000)
    part = partition_noniid(labels, 100, seed=12)
    allix = np.concatenate(list(part.values()))
    assert len(allix) == len(np.unique(allix)) == 50000
    assert all(len(ix) == 500 for ix in part.values())
    assert max(len(np.unique(labels[ix])) for ix in part.values()) <= 4

    # reduced end-to-end run with the small convnet on CIFAR-shaped data
    cfg = ExperimentConfig(
        arch="small_convnet", dataset="synthetic-images",
        dataset_params={"num_train": 120, "num_test": 40, "channels": 3,
                        "side": 32, "num_classes": 10},
        num_clients=4, clients_per_round=2, local_epochs=1, batch_size=10,
        warmup_rounds=1, pruning_rounds=4, admm_stage_rounds=1,
        sparsity=SparsityConfig(keep={"conv2": 0.3, "fc1": 0.2, "fc2": 0.5}),
        seed=0, eval_examples=20)
    res = run_experiment(cfg)
    assert len(res.metrics) == 5
    assert [m.phase for m in res.metrics] == \
        ["warmup"] + ["admm_prune"] * 4
    assert res.global_params.allfinite()
    assert all(0.0 <= m.accuracy <= 1.0 for m in res.metrics)
    assert res.mask is not None
    budgets = cfg.sparsity.budgets(res.global_params)
    for lid, n in budgets.items():
        assert np.count_nonzero(res.global_params[lid].weight) == n
    report(12, True, "CIFAR-scale partition invariants and 5-round "
                     "small-convnet run green")
