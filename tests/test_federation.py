import inspect
import struct
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedprune import codec, enclave, federation, nn, pruning, secure
from fedprune.config import load_config
from fedprune.datasets import synthetic_blobs
from fedprune.federation import (PRUNING_PHASES, ExperimentAborted, ExperimentConfig,
                                 RoundMetrics, RoundPlan,
                                 client_buffers, client_round, partition_iid, partition_noniid,
                                 plan_round, pruning_phase_bytes,
                                 run_experiment, saving_percent,
                                 stage_keep_config)
from fedprune.pruning import SparsityConfig
from reference import ref_cast, ref_client_round, ref_decode, ref_seeds, ref_wire, same_params


def tiny_cfg(**kw):
    base = dict(
        arch="mlp", arch_params={"dims": (10, 8, 3)},
        dataset="synthetic",
        dataset_params={"num_train": 300, "num_test": 90,
                        "num_features": 10, "num_classes": 3},
        num_clients=6, clients_per_round=3, local_epochs=1, batch_size=10,
        warmup_rounds=2, pruning_rounds=6, admm_stage_rounds=1,
        sparsity=SparsityConfig(keep={"fc1": 0.25, "fc2": 0.5}), seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


def run_logging_calls(monkeypatch, cfg):
    """run_experiment(cfg), and per round its ("attest", client) and
    ("train", client) calls in call order."""
    who = {federation._client_seed(cfg.seed, rnd, cid): cid
           for rnd in range(cfg.total_rounds()) for cid in range(cfg.num_clients)}
    real_publish, real_attest = enclave.publish_model, secure.attest_and_exchange
    real_round = federation.client_round
    calls = []

    def publish_model(params, ctx):
        calls.append([])
        return real_publish(params, ctx)

    def attest_and_exchange(cid, manager, rng):
        calls[-1].append(("attest", cid))
        return real_attest(cid, manager, rng)

    def client_round(*args):
        calls[-1].append(("train", who[args[8]]))
        return real_round(*args)

    monkeypatch.setattr(enclave, "publish_model", publish_model)
    monkeypatch.setattr(secure, "attest_and_exchange", attest_and_exchange)
    monkeypatch.setattr(federation, "client_round", client_round)
    return run_experiment(cfg), calls


class TestPartitionIid:
    def test_mnist_scale(self):
        p = partition_iid(60000, 100, seed=0)
        assert all(len(ix) == 600 for ix in p.values())
        allix = np.concatenate(list(p.values()))
        assert len(np.unique(allix)) == 60000

    def test_cifar_scale(self):
        p = partition_iid(50000, 100, seed=0)
        assert all(len(ix) == 500 for ix in p.values())

    def test_singletons(self):
        p = partition_iid(10, 10, seed=1)
        assert sorted(int(ix[0]) for ix in p.values()) == list(range(10))

    def test_remainder_dropped(self):
        p = partition_iid(103, 10, seed=1)
        assert all(len(ix) == 10 for ix in p.values())

    def test_too_many_clients(self):
        with pytest.raises(ValueError):
            partition_iid(5, 10, seed=0)


class TestPartitionNoniid:
    def _labels(self, n, classes=10, seed=0):
        return np.random.default_rng(seed).integers(0, classes, size=n)

    def test_mnist_shape_label_concentration(self):
        labels = self._labels(60000)
        p = partition_noniid(labels, 100, seed=4)
        distinct = [len(np.unique(labels[ix])) for ix in p.values()]
        assert max(distinct) <= 4         # 2 shards, each spans <= 2 labels
        frac_le3 = np.mean([d <= 3 for d in distinct])
        assert frac_le3 >= 0.95

    def test_cifar_shape(self):
        labels = self._labels(50000)
        p = partition_noniid(labels, 100, seed=4)
        assert all(len(ix) == 500 for ix in p.values())
        distinct = [len(np.unique(labels[ix])) for ix in p.values()]
        assert max(distinct) <= 2 * 2

    def test_disjoint_and_covering(self):
        labels = self._labels(1000)
        p = partition_noniid(labels, 10, seed=2)
        allix = np.concatenate(list(p.values()))
        assert len(allix) == len(np.unique(allix)) == 1000

    def test_degenerate_single_client(self):
        labels = self._labels(100)
        p = partition_noniid(labels, 1, seed=0)
        assert len(p[0]) == 100

    def test_shard_arithmetic_checked(self):
        # shard size is derived from the labels: 60000 // (100 x 2) = 300,
        # and more shards than examples is an error rather than empty shards
        assert all(len(ix) == 600 for ix in
                   partition_noniid(self._labels(60000), 100, seed=0).values())
        with pytest.raises(ValueError):
            partition_noniid(self._labels(100), 51, seed=0)


class TestSchedule:
    def test_phases(self):
        cfg = tiny_cfg()
        phases = [plan_round(cfg, r).phase for r in range(cfg.total_rounds())]
        assert phases == ["warmup", "warmup", "admm_prune", "admm_prune",
                          "admm_prune", "admm_prune", "masked_finetune",
                          "masked_finetune"]
        assert plan_round(cfg, 5).finalize_after

    def test_geometric_ramp_lands_on_target(self):
        cfg = SparsityConfig(keep={"a": 0.1})
        fracs = [stage_keep_config(cfg, j).keep["a"] for j in range(4)]
        assert fracs == sorted(fracs, reverse=True)
        assert fracs[-1] == pytest.approx(0.1)
        assert fracs[0] == pytest.approx(0.1 ** 0.25)

    def test_masked_mode_never_finetunes(self):
        cfg = tiny_cfg(mode="masked")
        phases = {plan_round(cfg, r).phase for r in range(2, cfg.total_rounds())}
        assert phases == {"masked_prune"}

    def test_dense_mode(self):
        cfg = tiny_cfg(mode="dense", sparsity=None)
        assert all(plan_round(cfg, r).phase == "dense"
                   for r in range(cfg.total_rounds()))

    @pytest.mark.parametrize("mode", ["admm", "masked", "dense"])
    @pytest.mark.parametrize("stage_rounds, pruning_rounds", [(1, 2), (1, 9), (3, 7), (2, 8)])
    def test_stage_cfg_none_exactly_outside_pruning_phases(self, mode, stage_rounds,
                                                           pruning_rounds):
        # _run_rounds picks the CSR encoder and the enclave's budgets by
        # stage_cfg alone; the saving counts rounds by phase.  Ramps of
        # 4 x stage_rounds rounds both longer and shorter than pruning_rounds.
        cfg = tiny_cfg(mode=mode, warmup_rounds=2, pruning_rounds=pruning_rounds,
                       admm_stage_rounds=stage_rounds,
                       sparsity=None if mode == "dense" else SparsityConfig(keep={"fc1": 0.25}))
        plans = [plan_round(cfg, r) for r in range(cfg.total_rounds())]
        assert all((p.stage_cfg is None) == (p.phase not in PRUNING_PHASES)
                   for p in plans)
        assert any(p.stage_cfg is None for p in plans)
        if mode != "dense":
            assert sum(p.stage_cfg is not None for p in plans) == pruning_rounds


class TestClientRound:
    def test_lr_zero_returns_global(self):
        ds = synthetic_blobs(60, 10, 10, 3, seed=1)
        arch = nn.mlp((10, 8, 3))
        g = nn.init_model(arch, 0)
        cfg = tiny_cfg(lr=0.0, mode="dense", sparsity=None)
        upd, _ = client_round(arch, g, ds.train_x, ds.train_y, cfg,
                              RoundPlan("dense", None, False), None, None, seed=0,
                              buffers=client_buffers(g))
        for a, b in zip(upd.entries, g.entries):
            assert np.array_equal(a.weight, b.weight)

    def test_masked_phase_keeps_zeros(self):
        ds = synthetic_blobs(80, 10, 10, 3, seed=1)
        arch = nn.mlp((10, 8, 3))
        cfg = tiny_cfg(local_epochs=3)
        g, mask = pruning.final_hard_prune(nn.init_model(arch, 0), cfg.sparsity)
        upd, _ = client_round(arch, g, ds.train_x, ds.train_y, cfg,
                              RoundPlan("masked_finetune", cfg.sparsity, False),
                              None, mask, seed=5, buffers=client_buffers(g))
        for lid, m in mask.layers.items():
            assert np.all(upd[lid].weight[~m] == 0.0)
            assert np.any(upd[lid].weight[m] != g[lid].weight[m])
        # the upload's projection to the budget leaves the masked model as it is
        for lid, n in cfg.sparsity.budgets(g).items():
            assert np.count_nonzero(upd[lid].weight) <= n
        on_mask = upd.map(lambda lid, w, b: (np.where(mask.layers[lid], w, 0.0), b))
        assert codec.csr_encode(upd) == codec.csr_encode(on_mask)

    def test_masked_nan_gradient_stays_budget_sized(self, fake_backward):
        # NaN * 0 is NaN: a mask applied by multiplication would let a NaN
        # off the mask into the weights, and from there into every weight
        ds = synthetic_blobs(80, 10, 10, 3, seed=1)
        arch = nn.mlp((10, 8, 3))
        cfg = tiny_cfg(local_epochs=2)
        g, mask = pruning.final_hard_prune(nn.init_model(arch, 0), cfg.sparsity)
        real_backward = nn.backward

        def nan_off_mask(arch_, params, batch):
            return real_backward(arch_, params, batch).map(
                lambda lid, w, b: (np.where(mask.layers[lid], w, np.nan), b))

        fake_backward(nan_off_mask)
        upd, _ = client_round(arch, g, ds.train_x, ds.train_y, cfg,
                              RoundPlan("masked_finetune", cfg.sparsity, False),
                              None, mask, seed=5, buffers=client_buffers(g))
        assert upd.allfinite()
        for lid, n in cfg.sparsity.budgets(g).items():
            assert np.count_nonzero(upd[lid].weight) <= n
            assert np.all(upd[lid].weight[~mask.layers[lid]] == 0.0)
        assert codec.encoded_size(upd, "csr") <= codec.encoded_size(g, "csr")

    def test_admm_round_projects_upload(self):
        ds = synthetic_blobs(80, 10, 10, 3, seed=1)
        arch = nn.mlp((10, 8, 3))
        cfg = tiny_cfg()
        g = nn.init_model(arch, 0)
        plan = RoundPlan("admm_prune", cfg.sparsity, False)
        upd, state = client_round(arch, g, ds.train_x, ds.train_y, cfg, plan,
                                  None, None, seed=5, buffers=client_buffers(g))
        budgets = cfg.sparsity.budgets(g)
        for lid, n in budgets.items():
            assert np.count_nonzero(upd[lid].weight) == n
            assert np.count_nonzero(state.z[lid].dense()) <= n
        assert state.step == 1

    @pytest.mark.parametrize("phase", ["admm_prune", "masked_finetune"])
    def test_sparse_upload_builds_no_mask(self, phase, monkeypatch):
        ds = synthetic_blobs(80, 10, 10, 3, seed=1)
        arch = nn.mlp((10, 8, 3))
        cfg = tiny_cfg()
        g, mask = pruning.final_hard_prune(nn.init_model(arch, 0), cfg.sparsity)

        def no_mask(layers):
            raise AssertionError("a client upload built a PruneMask")

        monkeypatch.setattr(pruning, "PruneMask", no_mask)
        upd, _ = client_round(arch, g, ds.train_x, ds.train_y, cfg,
                              RoundPlan(phase, cfg.sparsity, False), None,
                              mask if phase == "masked_finetune" else None, seed=5,
                              buffers=client_buffers(g))
        for lid, n in cfg.sparsity.budgets(g).items():
            assert 0 < np.count_nonzero(upd[lid].weight) <= n

    def test_regression_fixture(self):
        # frozen from a reference run of this exact configuration
        ds = synthetic_blobs(120, 40, 10, 3, seed=8)
        arch = nn.mlp((10, 8, 3))
        cfg = tiny_cfg(num_clients=1, clients_per_round=1, warmup_rounds=1,
                       pruning_rounds=0, mode="dense", sparsity=None, seed=5)
        g = nn.init_model(arch, 5)
        upd, _ = client_round(arch, g, ds.train_x, ds.train_y, cfg,
                              RoundPlan("warmup", None, False), None, None, seed=1234,
                              buffers=client_buffers(g))
        assert float(upd["fc1"].weight.sum()) == pytest.approx(
            0.0047912482770558484, abs=1e-15)
        assert float(upd["fc2"].weight[0, 0]) == pytest.approx(
            0.09406825543359625, abs=1e-15)


def param_bytes(params):
    return [(e.layer_id, e.weight.tobytes(), e.bias.tobytes()) for e in params.entries]


def dense_zu(state):
    """An ADMMState's Z and U as reference.py holds them: dicts of dense tensors."""
    return state and ({lid: z.dense() for lid, z in state.z.items()}, state.u)


def state_bytes(state):
    """Z and U bytes by layer, Z dense, of an ADMMState or of reference.py's (Z, U)."""
    zu = dense_zu(state) if isinstance(state, pruning.ADMMState) else state
    return zu and [(lid, zu[0][lid].tobytes(), zu[1][lid].tobytes()) for lid in sorted(zu[0])]


def reference_bytes(arch, g, x, y, cfg, plan, state, mask):
    """(upload, Z and U) bytes of reference.py's client round, seed 5, on
    client_round's inputs."""
    upd, out = ref_client_round(arch, g, x, y, cfg, plan, 5, dense_zu(state),
                                mask and mask.layers)
    return param_bytes(upd), state_bytes(out)


STEP_CASES = ["warmup", "admm_first", "admm_returning", "masked_prune", "finetune", "dense",
              "finetune_off_mask_weights"]


def step_case(case, momentum, dtype=np.float64):
    """(arch, dataset, cfg, plan, global model, ADMM state, mask) of one
    STEP_CASES round on a (10, 8, 6, 3) MLP, the model and state in dtype."""
    # fc3 is unconstrained; two epochs carry the momentum buffer over.
    # rho and lr are large enough that a penalty summed in another order
    # changes the update's last bits.
    ds = synthetic_blobs(80, 10, 10, 3, seed=1)
    arch = nn.mlp((10, 8, 6, 3))
    sparsity = SparsityConfig(keep={"fc1": 0.25, "fc2": 0.5}, rho=1.0)
    cfg = tiny_cfg(arch_params={"dims": (10, 8, 6, 3)}, sparsity=sparsity,
                   local_epochs=2, lr=0.05, momentum=momentum)
    g = ref_cast(nn.init_model(arch, 0), dtype)
    state = mask = None
    if case == "warmup":
        plan = RoundPlan("warmup", None, False)
    elif case == "dense":
        plan = RoundPlan("dense", None, False)
    elif case == "masked_prune":
        plan = RoundPlan("masked_prune", stage_keep_config(sparsity, 0), False)
    elif case == "finetune":
        plan = RoundPlan("masked_finetune", sparsity, False)
        g, mask = pruning.final_hard_prune(g, sparsity)
    elif case == "finetune_off_mask_weights":
        # a mask of another model: the weights off it are not zero, and
        # must come out of the local steps unchanged
        plan = RoundPlan("masked_finetune", sparsity, False)
        mask = pruning.final_hard_prune(nn.init_model(arch, 1), sparsity)[1]
    else:
        plan = RoundPlan("admm_prune", stage_keep_config(sparsity, 2), False)
        if case == "admm_returning":
            # Z on the budget and a dense U, so both are non-zero together
            rng = np.random.default_rng(7)
            budgets = plan.stage_cfg.budgets(g)
            state = pruning.ADMMState(
                z={lid: pruning.KeptEntries.of(pruning.euclidean_project(
                    rng.normal(0, 0.3, g[lid].weight.shape).astype(dtype), n))
                   for lid, n in budgets.items()},
                u={lid: rng.normal(0, 0.1, g[lid].weight.shape).astype(dtype)
                   for lid in budgets},
                step=3)
    return arch, ds, cfg, plan, g, state, mask


def assert_step_matches_reference(case, momentum, dtype):
    """client_round against reference.py's client round on a (10, 8, 6, 3) MLP."""
    arch, ds, cfg, plan, g, state, mask = step_case(case, momentum, dtype)
    inputs = (param_bytes(g), state_bytes(state),
              mask and [m.tobytes() for m in mask.layers.values()])

    upd, out = client_round(arch, g, ds.train_x, ds.train_y, cfg, plan, state,
                            mask, seed=5, buffers=client_buffers(g))
    assert upd.allfinite()
    assert (param_bytes(upd), state_bytes(out)) == \
        reference_bytes(arch, g, ds.train_x, ds.train_y, cfg, plan, state, mask)
    assert (out is None) == (plan.phase != "admm_prune")
    assert out is None or out.step == (state.step if state else 0) + 1
    # nothing the caller passed in was written to, or is returned
    assert inputs == (param_bytes(g), state_bytes(state),
                      mask and [m.tobytes() for m in mask.layers.values()])
    assert not any(np.shares_memory(a, b) for e, f in zip(upd.entries, g.entries)
                   for a, b in ((e.weight, f.weight), (e.bias, f.bias)))


def lenet_step_inputs(seed, dtype):
    """A LeNet-5 model in dtype and 15 random examples."""
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(15, 1, 28, 28)), rng.integers(0, 10, 15)
    return rng, x, y, ref_cast(nn.init_model(nn.lenet5(), 0), dtype)


class LocalStepBytes:
    """client_round against reference.py's client round byte for byte, with
    the model, ADMM state and so every buffer in ``dtype``."""

    dtype = np.float64

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("case", STEP_CASES)
    def test_bit_identical_to_reference_chain(self, case, momentum):
        assert_step_matches_reference(case, momentum, self.dtype)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("case", STEP_CASES)
    def test_bit_identical_across_blocks(self, case, momentum, monkeypatch):
        # blocks of 7 entries: every tensor but fc3's bias spans several
        # blocks and ends in a ragged one, and Z's entries fall in most blocks
        monkeypatch.setattr(federation, "_BLOCK", 7)
        assert_step_matches_reference(case, momentum, self.dtype)

    def test_lenet_fc1_at_the_real_block_size(self):
        # fc1's 400,000 weights are 12 full blocks and a ragged 13th
        assert 400_000 % federation._BLOCK and 400_000 > 12 * federation._BLOCK
        arch = nn.lenet5()
        sparsity = SparsityConfig(keep={"conv2": 0.06, "fc1": 0.0055}, rho=1.0)
        cfg = tiny_cfg(arch="lenet5", arch_params={}, sparsity=sparsity,
                       local_epochs=1, batch_size=5, lr=0.05, momentum=0.9)
        rng, x, y, g = lenet_step_inputs(3, self.dtype)
        plan = RoundPlan("admm_prune", stage_keep_config(sparsity, 0), False)
        state = pruning.ADMMState(
            z={lid: pruning.KeptEntries.of(pruning.euclidean_project(
                rng.normal(0, 0.05, g[lid].weight.shape).astype(self.dtype), n))
               for lid, n in plan.stage_cfg.budgets(g).items()},
            u={lid: rng.normal(0, 0.01, g[lid].weight.shape).astype(self.dtype)
               for lid in sparsity.keep})
        upd, out = client_round(arch, g, x, y, cfg, plan, state, None, seed=5,
                                buffers=client_buffers(g))
        assert (param_bytes(upd), state_bytes(out)) == \
            reference_bytes(arch, g, x, y, cfg, plan, state, None)

    def test_lenet_finetune_at_the_real_block_size(self):
        # fc1's mask keeps 80,000 weights, so its support-only step runs
        # two full blocks and a ragged third
        assert 2 * federation._BLOCK < 80_000 < 3 * federation._BLOCK
        arch = nn.lenet5()
        sparsity = SparsityConfig(keep={"conv2": 0.06, "fc1": 0.2})
        cfg = tiny_cfg(arch="lenet5", arch_params={}, sparsity=sparsity,
                       local_epochs=1, batch_size=5, lr=0.05, momentum=0.9)
        _, x, y, g = lenet_step_inputs(3, self.dtype)
        g, mask = pruning.final_hard_prune(g, sparsity)
        assert np.count_nonzero(mask.layers["fc1"]) == 80_000
        plan = RoundPlan("masked_finetune", sparsity, False)
        upd, _ = client_round(arch, g, x, y, cfg, plan, None, mask, seed=5,
                              buffers=client_buffers(g))
        assert param_bytes(upd) == reference_bytes(arch, g, x, y, cfg, plan, None, mask)[0]

    @pytest.mark.parametrize("phase", ["dense", "warmup"])
    def test_lenet_unconstrained_round(self, phase):
        # six minibatches: every layer's step overlaps the rest of its pass,
        # and the momentum carries over from one pass's steps to the next
        arch = nn.lenet5()
        cfg = tiny_cfg(arch="lenet5", arch_params={}, local_epochs=2, batch_size=5,
                       lr=0.05, momentum=0.9)
        _, x, y, g = lenet_step_inputs(4, self.dtype)
        plan = RoundPlan(phase, None, False)
        upd, out = client_round(arch, g, x, y, cfg, plan, None, None, seed=5,
                                buffers=client_buffers(g))
        assert out is None
        assert param_bytes(upd) == reference_bytes(arch, g, x, y, cfg, plan, None, None)[0]

    @pytest.mark.parametrize("case", ["dense", "admm_returning", "finetune"])
    def test_reused_buffers(self, case):
        # client B on the buffers that client A trained in last gives the
        # bytes B gets on fresh buffers, whatever kind of round A's was
        arch, ds, cfg, plan, g, state, mask = step_case(case, 0.9, self.dtype)
        fresh = client_round(arch, g, ds.train_x, ds.train_y, cfg, plan, state, mask,
                             seed=5, buffers=client_buffers(g))
        want = (param_bytes(fresh[0]), state_bytes(fresh[1]))
        for other in STEP_CASES:
            _, _, _, plan_a, g_a, state_a, mask_a = step_case(other, 0.5, self.dtype)
            buffers = client_buffers(g)
            client_round(arch, g_a, ds.train_x[:30], ds.train_y[:30], cfg, plan_a,
                         state_a, mask_a, seed=9, buffers=buffers)
            upd, out = client_round(arch, g, ds.train_x, ds.train_y, cfg, plan, state,
                                    mask, seed=5, buffers=buffers)
            assert (param_bytes(upd), state_bytes(out)) == want, other

    def test_buffers_poisoned_with_nan(self):
        # every entry the round reads is one it wrote first
        for case in STEP_CASES:
            arch, ds, cfg, plan, g, state, mask = step_case(case, 0.9, self.dtype)
            buffers = client_buffers(g)
            work, velocities, scratch, z_buffers = buffers
            z_buffers.update((lid, np.empty(g[lid].weight.size, self.dtype))
                             for lid in cfg.sparsity.keep)
            for a in ([t for e in work.entries for t in (e.weight, e.bias)] + velocities
                      + list(z_buffers.values())):
                a.fill(np.nan)
            scratch.fill(np.nan)
            upd, out = client_round(arch, g, ds.train_x, ds.train_y, cfg, plan, state,
                                    mask, seed=5, buffers=buffers)
            assert (param_bytes(upd), state_bytes(out)) == \
                reference_bytes(arch, g, ds.train_x, ds.train_y, cfg, plan, state, mask), case


class TestLocalStepFp32(LocalStepBytes):
    """The byte cases at fp32, the precision run_experiment's clients train
    in, and the dtype of everything a round leaves behind."""

    dtype = np.float32

    def test_everything_stays_fp32(self):
        # a float64 scalar beside fp32 operands computes at fp64 (NEP 50),
        # and a float64 array written into a buffer would cast silently;
        # every array a round leaves is fp32
        for case in STEP_CASES:
            arch, ds, cfg, plan, g, state, mask = step_case(case, 0.9, np.float32)
            buffers = client_buffers(g)
            upd, out = client_round(arch, g, ds.train_x, ds.train_y, cfg, plan, state,
                                    mask, seed=5, buffers=buffers)
            work, velocities, scratch, z_buffers = buffers
            arrays = [t for p in (work, upd) for e in p.entries for t in (e.weight, e.bias)]
            arrays += [*velocities, scratch, *z_buffers.values()]
            if out is not None:
                arrays += [z.value for z in out.z.values()] + list(out.u.values())
                assert z_buffers.keys() == out.z.keys() == out.u.keys(), case
            assert {a.dtype for a in arrays} == {np.dtype(np.float32)}, case

    @pytest.mark.parametrize("case", STEP_CASES)
    def test_float64_scalars_do_not_promote_the_step(self, case):
        # lr, momentum and rho given as numpy float64 scalars step the fp32
        # buffers as the same Python floats do
        arch, ds, cfg, plan, g, state, mask = step_case(case, 0.9, np.float32)
        want = client_round(arch, g, ds.train_x, ds.train_y, cfg, plan, state, mask,
                            seed=5, buffers=client_buffers(g))
        strong = replace(cfg, lr=np.float64(cfg.lr), momentum=np.float64(cfg.momentum))
        if plan.stage_cfg is not None:
            plan = replace(plan, stage_cfg=replace(plan.stage_cfg,
                                                   rho=np.float64(plan.stage_cfg.rho)))
        got = client_round(arch, g, ds.train_x, ds.train_y, strong, plan, state, mask,
                           seed=5, buffers=client_buffers(g))
        assert (param_bytes(got[0]), state_bytes(got[1])) == \
            (param_bytes(want[0]), state_bytes(want[1]))


class TestLocalStep(LocalStepBytes):
    """client_round's step against the chain of whole-model steps it fused,
    and its arithmetic against hand-computed values."""

    def test_public_calls_stay_on_the_calling_thread(self, monkeypatch):
        # every public fedprune function wrapped, as perfbench's tracer
        # wraps them: its one span stack holds only while the step hooks on
        # nn's helper thread make no public call
        calls = []

        def on_thread(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapped
        for mod in (codec, enclave, federation, nn, pruning, secure):
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    monkeypatch.setattr(mod, attr, on_thread(f"{mod.__name__}.{attr}", fn))
        arch = nn.lenet5()
        sparsity = SparsityConfig(keep={"conv2": 0.06, "fc1": 0.0055}, rho=1.0)
        cfg = tiny_cfg(arch="lenet5", arch_params={}, sparsity=sparsity,
                       local_epochs=1, batch_size=5, lr=0.05, momentum=0.9)
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(15, 1, 28, 28)), rng.integers(0, 10, 15)
        g = nn.init_model(arch, 0)
        pruned, mask = pruning.final_hard_prune(g, sparsity)
        buffers = federation.client_buffers(g)
        state = None
        for phase, stage, model, m in (("warmup", None, g, None),
                                       ("admm_prune", 0, g, None),    # a first client
                                       ("admm_prune", 1, g, None),    # and a returning one
                                       ("masked_prune", 0, g, None),
                                       ("masked_finetune", 3, pruned, mask)):
            calls.clear()
            plan = RoundPlan(phase, stage_keep_config(sparsity, stage)
                             if stage is not None else None, False)
            _, out = federation.client_round(arch, model, x, y, cfg, plan, state, m,
                                             seed=5, buffers=buffers)
            state = out or state
            off = sorted({name for name, t in calls if t != threading.get_ident()})
            assert not off, (phase, stage, off)
            assert sum(name == "fedprune.nn.backward" for name, _ in calls) == 3
        assert state.step == 2

    @pytest.mark.parametrize("case", ["admm_first", "admm_returning"])
    def test_admm_round_under_a_mask_rejected(self, case):
        # plan_round sets the shared mask only after the last ADMM round
        arch, ds, cfg, plan, g, state, _ = step_case(case, 0.9)
        mask = step_case("finetune", 0.9)[-1]
        with pytest.raises(ValueError, match="admm_prune round takes no mask"):
            client_round(arch, g, ds.train_x, ds.train_y, cfg, plan, state, mask,
                         seed=5, buffers=client_buffers(g))

    def test_dense_update_is_the_buffers(self):
        # no copy out: a dense round's update lives in the buffers until the
        # next client_round with them
        arch, ds, cfg, plan, g, state, mask = step_case("dense", 0.9)
        buffers = client_buffers(g)
        upd, _ = client_round(arch, g, ds.train_x, ds.train_y, cfg, plan, state, mask,
                              seed=5, buffers=buffers)
        assert all(a is b for a, b in zip(upd.entries, buffers[0].entries))

    def test_arithmetic(self, fixed_grad_round):
        params = nn.ParameterSet((nn.LayerParams("a", np.array([1.0, 1.0]), np.zeros(1)),))
        grad = nn.ParameterSet((nn.LayerParams("a", np.array([1.0, 2.0]), np.ones(1)),))
        upd, _ = fixed_grad_round(params, [grad], RoundPlan("dense", None, False), lr=0.1)
        assert np.allclose(upd["a"].weight, [0.9, 0.8])
        assert np.allclose(upd["a"].bias, [-0.1])

    def test_momentum_arithmetic(self, fixed_grad_round):
        # v1 = g1, v2 = 0.5 * v1 + g2; each step is W - lr * v
        params = nn.ParameterSet((nn.LayerParams("a", np.array([1.0, 1.0]), np.zeros(1)),))
        g1 = nn.ParameterSet((nn.LayerParams("a", np.array([1.0, 0.0]), np.ones(1)),))
        g2 = nn.ParameterSet((nn.LayerParams("a", np.array([0.0, 2.0]), np.ones(1)),))
        upd, _ = fixed_grad_round(params, [g1, g2], RoundPlan("dense", None, False),
                                  lr=0.1, momentum=0.5)
        assert np.allclose(upd["a"].weight, [1.0 - 0.1 - 0.05, 1.0 - 0.2])
        assert np.allclose(upd["a"].bias, [-0.1 - 0.15])

    @pytest.mark.parametrize("phase", ["admm_prune", "masked_finetune"])
    def test_reused_gradient_arrays(self, fixed_grad_round, phase):
        # one gradient object for all three steps of a round with the ADMM
        # penalty or with a mask: were any step to write into it, the later
        # steps would see it
        def layers(a, b):
            return nn.ParameterSet((nn.LayerParams("a", np.array(a[0]), np.array(a[1])),
                                    nn.LayerParams("b", np.array(b[0]), np.array(b[1]))))
        params = layers(([1.0, 2.0, 3.0], [0.0]), ([4.0], [0.0]))
        grad = layers(([0.5, -1.0, 2.0], [0.25]), ([1.0], [-1.0]))
        z, u = np.array([1.0, 0.0, 3.0]), np.array([0.1, -0.2, 0.3])
        m = np.array([True, False, True])
        state = mask = None
        if phase == "admm_prune":
            state = pruning.ADMMState(z={"a": pruning.KeptEntries.of(z)}, u={"a": u})
        else:
            mask = pruning.PruneMask({"a": m})
        plan = RoundPlan(phase, SparsityConfig(keep={"a": 1.0}, rho=2.0), False)
        upd, _ = fixed_grad_round(params, [grad] * 3, plan, state=state,
                                  mask=mask, lr=0.1, momentum=0.5)
        want = []
        for e, g in zip(params.entries, grad.entries):
            for t, gt, constrained in ((e.weight, g.weight, e.layer_id == "a"),
                                       (e.bias, g.bias, False)):
                v = None
                for _ in range(3):
                    step = gt
                    if constrained and state is not None:
                        step = step + 2.0 * (t - z + u)
                    if constrained and mask is not None:
                        step = np.where(m, step, 0.0)
                    v = step if v is None else 0.5 * v + step
                    t = t - 0.1 * v
                want.append(t.tobytes())
        assert want == [t.tobytes() for e in upd.entries for t in (e.weight, e.bias)]

    def test_zero_grad_no_change(self, fixed_grad_round):
        params = nn.init_model(nn.mlp((3, 2)), 1)
        zeros = params.map(lambda lid, w, b: (np.zeros_like(w), np.zeros_like(b)))
        upd, _ = fixed_grad_round(params, [zeros], RoundPlan("dense", None, False), lr=0.5)
        assert param_bytes(upd) == param_bytes(params)


class TestRunExperiment:
    def test_clients_share_one_buffer_set(self, monkeypatch):
        # the working set is allocated once per run, not once per client
        cfg = tiny_cfg()
        real_round = federation.client_round
        seen = []

        def client_round(*args):
            seen.append(args[-1])
            return real_round(*args)

        monkeypatch.setattr(federation, "client_round", client_round)
        run_experiment(cfg)
        assert len(seen) == cfg.total_rounds() * cfg.clients_per_round
        assert all(b is seen[0] for b in seen)

    def test_determinism_excluding_timing(self):
        cfg = tiny_cfg()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ma, mb in zip(a.metrics, b.metrics):
            assert ma.accuracy == mb.accuracy
            assert ma.bytes_up == mb.bytes_up
            assert ma.bytes_down == mb.bytes_down
            assert ma.keep_fraction == mb.keep_fraction
            assert ma.phase == mb.phase

    def test_pure_fedavg_regression(self):
        cfg = tiny_cfg(warmup_rounds=4, pruning_rounds=0, mode="dense",
                       sparsity=None)
        res = run_experiment(cfg)
        accs = [round(m.accuracy, 10) for m in res.metrics]
        assert accs == [0.2444444444, 0.4555555556, 0.5333333333, 0.6666666667]
        assert [m.bytes_up for m in res.metrics] == [1656] * 4

    def test_single_client_equals_centralized(self):
        # FedAvg over one client is that client's update, trained in fp32
        # from the fp32 broadcast; the client holds every example
        cfg = tiny_cfg(num_clients=1, clients_per_round=1, warmup_rounds=1,
                       pruning_rounds=0, mode="dense", sparsity=None)
        ds, arch = cfg.load_dataset(), cfg.build_arch()
        received = ref_cast(nn.init_model(arch, ref_seeds(cfg)[1]), np.float32)
        upload, _ = ref_client_round(arch, received, ds.train_x, ds.train_y, cfg,
                                     plan_round(cfg, 0), federation._client_seed(cfg.seed, 0, 0))
        assert same_params(run_experiment(cfg).global_params, ref_wire(upload))

    def test_admm_run_end_state(self):
        cfg = tiny_cfg(warmup_rounds=1, pruning_rounds=5, local_epochs=2)
        res = run_experiment(cfg)
        assert res.mask is not None
        budgets = cfg.sparsity.budgets(res.global_params)
        for lid, n in budgets.items():
            assert np.count_nonzero(res.global_params[lid].weight) <= n
        assert res.compression_rate > 2.0
        # sparse uploads during pruning phase are smaller than dense ones
        prune_rounds = [m for m in res.metrics if m.phase == "masked_finetune"]
        warm = [m for m in res.metrics if m.phase == "warmup"]
        assert prune_rounds[-1].bytes_up < warm[0].bytes_up

    def test_masked_mode_runs_and_reports_pruned_model(self):
        cfg = tiny_cfg(mode="masked", warmup_rounds=1, pruning_rounds=4)
        res = run_experiment(cfg)
        budgets = cfg.sparsity.budgets(res.global_params)
        for lid, n in budgets.items():
            assert np.count_nonzero(res.global_params[lid].weight) == n

    def test_timing_fields_consistent(self, monkeypatch):
        cfg = tiny_cfg(warmup_rounds=1, pruning_rounds=2)
        res, calls = run_logging_calls(monkeypatch, cfg)
        for m in res.metrics:
            for f in m.TIME_FIELDS:
                assert getattr(m, f) >= 0.0
                assert m.total_s >= getattr(m, f) * 0.95
        # a round is charged attestation exactly when it attests a client
        assert [m.attestation_s > 0.0 for m in res.metrics] == \
            [any(kind == "attest" for kind, _cid in rnd) for rnd in calls]

    def test_evaluation_counted_in_round_time(self, monkeypatch):
        import fedprune.federation as fed
        real = fed.nn.evaluate

        def slow_evaluate(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(fed.nn, "evaluate", slow_evaluate)
        res = run_experiment(tiny_cfg(warmup_rounds=1, pruning_rounds=2))
        for m in res.metrics:
            assert m.eval_s >= 0.05
            assert m.total_s >= m.component_sum() >= m.eval_s
        assert res.finalize_s >= 0.05   # the evaluation after the last round

    def test_transmission_is_modeled_link_time(self, monkeypatch):
        # bandwidth_mbps is megabits per second; the link charges each round
        # its bytes at that rate without sleeping, so reruns agree exactly
        def no_sleep(_seconds):
            raise AssertionError("the modeled link must not sleep")

        monkeypatch.setattr(time, "sleep", no_sleep)
        cfg = tiny_cfg(warmup_rounds=1, pruning_rounds=2, bandwidth_mbps=0.5)
        a, b = run_experiment(cfg), run_experiment(cfg)
        for m in a.metrics:
            expect = (m.bytes_up + m.bytes_down) * 8 / (0.5 * 1e6)
            assert m.transmission_s == pytest.approx(expect, rel=1e-12, abs=0)
            assert m.total_s >= m.component_sum() >= m.transmission_s
        assert [m.transmission_s for m in a.metrics] == \
            [m.transmission_s for m in b.metrics]

    def test_no_bandwidth_no_transmission_time(self):
        res = run_experiment(tiny_cfg(warmup_rounds=1, pruning_rounds=1))
        assert all(m.transmission_s == 0.0 for m in res.metrics)

    def test_abort_carries_partial_metrics(self, monkeypatch):
        import fedprune.federation as fed
        calls = {"n": 0}
        real = fed.enclave.fedavg

        def boom(agg):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise RuntimeError("synthetic failure")
            return real(agg)

        monkeypatch.setattr(fed.enclave, "fedavg", boom)
        with pytest.raises(ExperimentAborted) as ei:
            run_experiment(tiny_cfg())
        assert len(ei.value.partial.metrics) == 2
        assert all(m.bytes_up > 0 for m in ei.value.partial.metrics)
        assert ei.value.partial.global_params is None and ei.value.partial.mask is None

    @pytest.mark.parametrize("kw, match", [
        ({"sparsity": SparsityConfig(keep={"fc9": 0.5})}, "unknown layers"),
        ({"eval_batch_size": 0}, "eval_batch_size"),
        ({"momentum": float("nan")}, "momentum"),
        ({"momentum": -0.5}, "momentum"),
        ({"momentum": float("inf")}, "momentum"),
    ], ids=["keep_missing_layer", "eval_batch_size", "momentum_nan", "momentum_negative",
            "momentum_inf"])
    def test_rejected_at_construction_not_mid_run(self, kw, match):
        # each of these used to construct, then abort the run: a KeyError after
        # round 1, a zero range() step in evaluation, or every upload non-finite
        with pytest.raises(ValueError, match=match):
            tiny_cfg(**kw)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            tiny_cfg(clients_per_round=99)
        with pytest.raises(ValueError):
            tiny_cfg(mode="bogus")
        with pytest.raises(ValueError):
            tiny_cfg(mode="admm", sparsity=None)


class TestAdmmStateAcrossRounds:
    def test_client_sitting_out_resumes_its_last_state(self, monkeypatch):
        # 6 clients, 2 a round, 4 ADMM ramp rounds: clients sit out ADMM
        # rounds between participations
        cfg = tiny_cfg(clients_per_round=2, warmup_rounds=1, pruning_rounds=4)
        who = {federation._client_seed(cfg.seed, rnd, cid): (rnd, cid)
               for rnd in range(cfg.total_rounds()) for cid in range(cfg.num_clients)}
        real_round, real_init = federation.client_round, pruning.admm_init
        current, inits, joined = [], [], {}
        last = {}   # client -> (state returned, copies of its z and u)

        def init(params, stage_cfg):
            inits.append(current[0])
            return real_init(params, stage_cfg)

        def client_round(arch, g, x, y, cfg_, plan, state, mask, seed, buffers):
            current[:] = [who[seed]]
            rnd, cid = who[seed]
            if plan.phase != "admm_prune":
                return real_round(arch, g, x, y, cfg_, plan, state, mask, seed, buffers)
            if cid in last:
                returned, z, u = last[cid]
                assert state is returned and state.step == len(joined[cid])
                for lid in z:
                    assert state.z[lid].dense().tobytes() == z[lid]
                    assert state.u[lid].tobytes() == u[lid]
            else:
                assert state is None
            update, out = real_round(arch, g, x, y, cfg_, plan, state, mask, seed, buffers)
            joined.setdefault(cid, []).append(rnd)
            last[cid] = (out, {lid: a.dense().tobytes() for lid, a in out.z.items()},
                         {lid: a.tobytes() for lid, a in out.u.items()})
            return update, out

        monkeypatch.setattr(pruning, "admm_init", init)
        monkeypatch.setattr(federation, "client_round", client_round)
        run_experiment(cfg)
        assert inits == sorted((rounds[0], cid) for cid, rounds in joined.items())
        assert any(b - a > 1 for rounds in joined.values()
                   for a, b in zip(rounds, rounds[1:]))

    def test_finetune_rounds_get_no_state(self, monkeypatch):
        # the client ADMM states are dropped after the last ADMM round
        cfg = tiny_cfg(clients_per_round=2, warmup_rounds=1, pruning_rounds=6)
        real_round = federation.client_round
        seen = []    # (phase, state passed in)

        def client_round(arch, g, x, y, cfg_, plan, state, mask, seed, buffers):
            seen.append((plan.phase, state))
            return real_round(arch, g, x, y, cfg_, plan, state, mask, seed, buffers)

        monkeypatch.setattr(federation, "client_round", client_round)
        run_experiment(cfg)
        assert any(phase == "admm_prune" and state is not None for phase, state in seen)
        finetune = [state for phase, state in seen if phase == "masked_finetune"]
        assert len(finetune) == 4 and all(state is None for state in finetune)


class TestStreamedRound:
    def test_each_upload_loaded_after_its_own_client(self, monkeypatch):
        cfg = tiny_cfg()
        who = {federation._client_seed(cfg.seed, rnd, cid): cid
               for rnd in range(cfg.total_rounds()) for cid in range(cfg.num_clients)}
        real_round, real_load = federation.client_round, enclave.enclave_load
        calls = []

        def client_round(arch, g, x, y, cfg_, plan, state, mask, seed, buffers):
            calls.append(("train", who[seed]))
            return real_round(arch, g, x, y, cfg_, plan, state, mask, seed, buffers)

        def load(encs, ctx, example_counts):
            calls.append(("load", [enc.client_id for enc in encs]))
            return real_load(encs, ctx, example_counts)

        monkeypatch.setattr(federation, "client_round", client_round)
        monkeypatch.setattr(enclave, "enclave_load", load)
        run_experiment(cfg)
        trained = [cid for kind, cid in calls if kind == "train"]
        assert len(trained) == cfg.total_rounds() * cfg.clients_per_round
        assert calls == [call for cid in trained for call in (("train", cid), ("load", [cid]))]

    def test_records_freed_once_fedavg_has_used_them(self, monkeypatch):
        # no collection is forced: the records must go as their last reference does
        cfg = tiny_cfg()
        real_round, real_fedavg, real_eval = federation.client_round, enclave.fedavg, nn.evaluate
        inputs = []                          # per round: weak references to fedavg's input
        at_eval, at_next_round = [], []      # how many of the last round's were alive

        def fedavg(agg):
            inputs.append([weakref.ref(agg)] + [weakref.ref(r) for r in agg.records]
                          + [weakref.ref(x.values) for r in agg.records for x in r.update.layers])
            return real_fedavg(agg)

        def alive():
            return sum(ref() is not None for ref in inputs[-1])

        def evaluate(*args):
            at_eval.append(alive())
            return real_eval(*args)

        def client_round(*args):
            if len(at_next_round) < len(inputs):     # the first client of the next round
                at_next_round.append(alive())
            return real_round(*args)

        monkeypatch.setattr(enclave, "fedavg", fedavg)
        monkeypatch.setattr(nn, "evaluate", evaluate)
        monkeypatch.setattr(federation, "client_round", client_round)
        run_experiment(cfg)
        assert len(inputs) == cfg.total_rounds()
        assert all(len(refs) == 1 + 3 * cfg.clients_per_round for refs in inputs)
        assert at_eval == [0] * (cfg.total_rounds() + 1)     # each round's and the final one
        assert at_next_round == [0] * (cfg.total_rounds() - 1)


DEMO_CFG = Path(__file__).resolve().parent.parent / "configs" / "demo_synthetic.cfg"


class TestAttestationInFirstSampledRound:
    @pytest.mark.parametrize("mode", ["admm", "masked", "dense"])
    def test_each_client_attests_once_right_before_its_first_round(self, monkeypatch, mode):
        cfg = load_config(DEMO_CFG, mode=mode, num_clients=40)   # 5 a round for 12 rounds
        res, calls = run_logging_calls(monkeypatch, cfg)
        assert len(calls) == len(res.metrics) == cfg.total_rounds()
        seen = set()
        for rnd, (log, m) in enumerate(zip(calls, res.metrics)):
            trained = [cid for kind, cid in log if kind == "train"]
            new = [cid for cid in trained if cid not in seen]
            # each new client attests just before it trains, and no other does
            assert log == [call for cid in trained for call in
                           ((("attest", cid), ("train", cid)) if cid in new
                            else (("train", cid),))], rnd
            assert (m.attestation_s > 0.0) == bool(new), rnd
            seen.update(trained)
        # the case bites: the last round samples no new client, and 9 clients
        # are never sampled, so never attested
        assert res.metrics[-1].attestation_s == 0.0
        assert len(seen) == cfg.num_clients - 9


def run_with_one_bad_payload(monkeypatch, replace, **overrides):
    """Demo config, dense, 2 pruning rounds unless overridden; the first
    client sealing in round 1 uploads replace(its update bytes).  Returns
    (result, victim, rejections)."""
    cfg = load_config(DEMO_CFG, **{"mode": "dense", "pruning_rounds": 2, **overrides})
    real_seal, real_load = secure.ClientChannel.encrypt_update, enclave.enclave_load
    victim, rejections = [], []

    def seal(channel, update_bytes, round_index, payload_format):
        if round_index == 1 and not victim:
            victim.append(channel.client_id)
            update_bytes = replace(update_bytes)
        return real_seal(channel, update_bytes, round_index, payload_format)

    def load(encs, ctx, example_counts):
        agg, rej = real_load(encs, ctx, example_counts)
        rejections.extend(rej)
        return agg, rej

    monkeypatch.setattr(secure.ClientChannel, "encrypt_update", seal)
    monkeypatch.setattr(enclave, "enclave_load", load)
    return run_experiment(cfg), victim[0], rejections


def run_with_one_bad_upload(monkeypatch, corrupt):
    """As run_with_one_bad_payload; the victim uploads corrupt(its update)."""
    return run_with_one_bad_payload(monkeypatch, lambda blob: codec.dense_encode(
        corrupt(ref_decode(blob))))


class TestBadUploadCostsOnlyItself:
    def _assert_only_victim_rejected(self, res, victim, rejections, reason):
        assert len(res.metrics) == 5
        assert [(r.client_id, reason in r.reason) for r in rejections] == [(victim, True)]
        assert all(np.isfinite(e.weight).all() and np.isfinite(e.bias).all()
                   for e in res.global_params.entries)

    def test_wrong_shape_rejected(self, monkeypatch):
        def one_row_short(params):
            fc1 = params["fc1"]
            short = nn.LayerParams("fc1", fc1.weight[:-1], fc1.bias)
            return nn.ParameterSet(tuple(short if e.layer_id == "fc1" else e
                                         for e in params.entries))

        res, victim, rejections = run_with_one_bad_upload(monkeypatch, one_row_short)
        self._assert_only_victim_rejected(res, victim, rejections, "published")

    def test_nan_update_rejected(self, monkeypatch):
        res, victim, rejections = run_with_one_bad_upload(
            monkeypatch, lambda p: p.map(lambda lid, w, b: (w * np.nan, b * np.nan)))
        self._assert_only_victim_rejected(res, victim, rejections, "non-finite")

    def test_oversized_header_rejected(self, monkeypatch):
        # 45 bytes: the published layer count, then layer fc1 claiming dims
        # (1, 2**32-1), a 32 GiB float64 array if sized from the header
        oversized = b"".join([
            codec.MAGIC, struct.pack("<BBH", codec.VERSION, codec.FORMAT_CSR, 2),
            struct.pack("<B3sB2I", 3, b"fc1", 2, 1, 2**32 - 1),
            struct.pack("<III", 1, 2**32 - 1, 0), struct.pack("<2I", 0, 0),
            struct.pack("<I", 0)])
        assert len(oversized) == 45
        res, victim, rejections = run_with_one_bad_payload(
            monkeypatch, lambda blob: oversized)
        self._assert_only_victim_rejected(res, victim, rejections, "published")

    def test_nonzeros_above_budget_rejected(self, monkeypatch):
        # ADMM, round 1 is ramp stage 0: the victim seals a finite CSR blob
        # in which every weight is non-zero
        def densified(blob):
            assert blob[5] == codec.FORMAT_CSR
            return codec.csr_encode(ref_decode(blob).map(
                lambda lid, w, b: (np.where(w == 0.0, 1e-3, w), b.copy())))

        res, victim, rejections = run_with_one_bad_payload(
            monkeypatch, densified, mode="admm", warmup_rounds=1, pruning_rounds=4)
        assert res.metrics[1].phase == "admm_prune"
        self._assert_only_victim_rejected(res, victim, rejections, "budget")


def metrics_of(phase, uploads, dense_uploads, download, rnd=0):
    """RoundMetrics of one round with the given per-client byte counts."""
    return RoundMetrics(
        rnd, phase, 1.0, 1.0, sum(uploads), len(uploads) * download,
        sum(dense_uploads), trusted_peak_bytes=0, total_s=0.0,
        **dict.fromkeys(RoundMetrics.TIME_FIELDS, 0.0))


class TestSavingPercent:
    def test_all_dense_saving_zero(self):
        metrics = [metrics_of("admm_prune", [500] * 4, [500] * 4, 500, rnd=r)
                   for r in range(3)]
        assert saving_percent(metrics) == 0.0

    def test_three_round_hand_summed_trace(self):
        # round 0 warmup (dense), rounds 1-2 pruning (sparse)
        metrics = [metrics_of("warmup", [100, 100], [100, 100], 100, 0),
                   metrics_of("admm_prune", [30, 50], [100, 100], 100, 1),
                   metrics_of("masked_finetune", [20, 20], [100, 100], 100, 2)]
        # pruning actual (80+200)+(40+200)=520, dense-equivalent (200+200)*2=800
        assert pruning_phase_bytes(metrics) == (520, 800)
        assert pruning_phase_bytes(metrics[:1]) == (0, 0)
        assert saving_percent(metrics) == pytest.approx(100 * (1 - 520 / 800))
