import struct
import time
from pathlib import Path

import numpy as np
import pytest

from fedprune import codec, enclave, nn, pruning, secure
from fedprune.config import load_config
from fedprune.datasets import synthetic_blobs
from fedprune.federation import (ExperimentAborted, ExperimentConfig,
                                 Partition, RoundMetrics, RoundPlan,
                                 client_round, partition_iid, partition_noniid,
                                 plan_round, pruning_phase_bytes,
                                 run_experiment, saving_percent,
                                 stage_keep_config)
from fedprune.pruning import SparsityConfig


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


class TestPartitionIid:
    def test_mnist_scale(self):
        p = partition_iid(60000, 100, seed=0)
        assert all(len(ix) == 600 for ix in p.assignments.values())
        allix = np.concatenate(list(p.assignments.values()))
        assert len(np.unique(allix)) == 60000

    def test_cifar_scale(self):
        p = partition_iid(50000, 100, seed=0)
        assert all(len(ix) == 500 for ix in p.assignments.values())

    def test_singletons(self):
        p = partition_iid(10, 10, seed=1)
        assert sorted(int(ix[0]) for ix in p.assignments.values()) == list(range(10))

    def test_remainder_dropped(self):
        p = partition_iid(103, 10, seed=1)
        assert all(len(ix) == 10 for ix in p.assignments.values())

    def test_too_many_clients(self):
        with pytest.raises(ValueError):
            partition_iid(5, 10, seed=0)


class TestPartitionNoniid:
    def _labels(self, n, classes=10, seed=0):
        return np.random.default_rng(seed).integers(0, classes, size=n)

    def test_mnist_shape_label_concentration(self):
        labels = self._labels(60000)
        p = partition_noniid(labels, 100, 200, 300, 2, seed=4)
        distinct = [len(np.unique(labels[ix])) for ix in p.assignments.values()]
        assert max(distinct) <= 4         # 2 shards, each spans <= 2 labels
        frac_le3 = np.mean([d <= 3 for d in distinct])
        assert frac_le3 >= 0.95

    def test_cifar_shape(self):
        labels = self._labels(50000)
        p = partition_noniid(labels, 100, 500, 100, 5, seed=4)
        assert all(len(ix) == 500 for ix in p.assignments.values())
        distinct = [len(np.unique(labels[ix])) for ix in p.assignments.values()]
        assert max(distinct) <= 2 * 5

    def test_disjoint_and_covering(self):
        labels = self._labels(1000)
        p = partition_noniid(labels, 10, 20, 50, 2, seed=2)
        allix = np.concatenate(list(p.assignments.values()))
        assert len(allix) == len(np.unique(allix)) == 1000

    def test_degenerate_single_client(self):
        labels = self._labels(100)
        p = partition_noniid(labels, 1, 4, 25, 4, seed=0)
        assert len(p.assignments[0]) == 100

    def test_shard_arithmetic_checked(self):
        labels = self._labels(100)
        with pytest.raises(ValueError):
            partition_noniid(labels, 10, 19, 5, 2, seed=0)
        with pytest.raises(ValueError):
            partition_noniid(labels, 10, 20, 50, 2, seed=0)


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


class TestClientRound:
    def test_lr_zero_returns_global(self):
        ds = synthetic_blobs(60, 10, 10, 3, seed=1)
        arch = nn.mlp((10, 8, 3))
        g = nn.init_model(arch, 0)
        cfg = tiny_cfg(lr=0.0, mode="dense", sparsity=None)
        upd, _ = client_round(arch, g, ds.train_x, ds.train_y, cfg,
                              RoundPlan("dense", None, False), None, None, seed=0)
        for a, b in zip(upd.entries, g.entries):
            assert np.array_equal(a.weight, b.weight)

    def test_masked_phase_keeps_zeros(self):
        ds = synthetic_blobs(80, 10, 10, 3, seed=1)
        arch = nn.mlp((10, 8, 3))
        cfg = tiny_cfg(local_epochs=3)
        g, mask = pruning.final_hard_prune(nn.init_model(arch, 0), cfg.sparsity)
        upd, _ = client_round(arch, g, ds.train_x, ds.train_y, cfg,
                              RoundPlan("masked_finetune", cfg.sparsity, False),
                              None, mask, seed=5)
        for lid, m in mask.layers.items():
            assert np.all(upd[lid].weight[~m] == 0.0)
            assert np.any(upd[lid].weight[m] != g[lid].weight[m])

    def test_admm_round_projects_upload(self):
        ds = synthetic_blobs(80, 10, 10, 3, seed=1)
        arch = nn.mlp((10, 8, 3))
        cfg = tiny_cfg()
        g = nn.init_model(arch, 0)
        plan = RoundPlan("admm_prune", cfg.sparsity, False)
        upd, state = client_round(arch, g, ds.train_x, ds.train_y, cfg, plan,
                                  None, None, seed=5)
        budgets = cfg.sparsity.budgets(g)
        for lid, n in budgets.items():
            assert np.count_nonzero(upd[lid].weight) == n
            assert np.count_nonzero(state.z[lid]) <= n
        assert state.step == 1

    def test_regression_fixture(self):
        # frozen from a reference run of this exact configuration
        ds = synthetic_blobs(120, 40, 10, 3, seed=8)
        arch = nn.mlp((10, 8, 3))
        cfg = tiny_cfg(num_clients=1, clients_per_round=1, warmup_rounds=1,
                       pruning_rounds=0, mode="dense", sparsity=None, seed=5)
        g = nn.init_model(arch, 5)
        upd, _ = client_round(arch, g, ds.train_x, ds.train_y, cfg,
                              RoundPlan("warmup", None, False), None, None, seed=1234)
        assert float(upd["fc1"].weight.sum()) == pytest.approx(
            0.0047912482770558484, abs=1e-15)
        assert float(upd["fc2"].weight[0, 0]) == pytest.approx(
            0.09406825543359625, abs=1e-15)


class TestRunExperiment:
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
        # FedAvg over one client is that client's update (at fp32 wire precision)
        from fedprune import codec
        from fedprune.federation import _client_seed
        cfg = tiny_cfg(num_clients=1, clients_per_round=1, warmup_rounds=1,
                       pruning_rounds=0, mode="dense", sparsity=None)
        res = run_experiment(cfg)

        ds = cfg.load_dataset()
        arch = cfg.build_arch()
        ss = np.random.SeedSequence(cfg.seed)
        s_partition, s_init, _, _ = (int(s.generate_state(1)[0]) for s in ss.spawn(4))
        part = partition_iid(len(ds.train_y), 1, s_partition)
        g0 = nn.init_model(arch, s_init)
        g0, _ = codec.decode_params(codec.dense_encode(g0), codec.schema(g0))  # fp32
        ix = part.assignments[0]
        upd, _ = client_round(arch, g0, ds.train_x[ix], ds.train_y[ix], cfg,
                              RoundPlan("warmup", None, False), None, None,
                              _client_seed(cfg.seed, 0, 0))
        upd, _ = codec.decode_params(codec.dense_encode(upd), codec.schema(upd))  # fp32
        for a, b in zip(res.global_params.entries, upd.entries):
            assert np.array_equal(a.weight, b.weight)

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

    def test_timing_fields_consistent(self):
        cfg = tiny_cfg(warmup_rounds=1, pruning_rounds=2)
        res = run_experiment(cfg)
        for m in res.metrics:
            for f in m.TIME_FIELDS:
                assert getattr(m, f) >= 0.0
                assert m.total_s >= getattr(m, f) * 0.95
        assert res.metrics[0].attestation_s > 0.0
        assert all(m.attestation_s == 0.0 for m in res.metrics[1:])

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

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            tiny_cfg(clients_per_round=99)
        with pytest.raises(ValueError):
            tiny_cfg(mode="bogus")
        with pytest.raises(ValueError):
            tiny_cfg(mode="admm", sparsity=None)


DEMO_CFG = Path(__file__).resolve().parent.parent / "configs" / "demo_synthetic.cfg"


def run_with_one_bad_payload(monkeypatch, replace):
    """Demo config, dense, 2 pruning rounds; the first client sealing in
    round 1 uploads replace(its update bytes).  Returns (result, victim,
    rejections)."""
    cfg = load_config(DEMO_CFG, mode="dense", pruning_rounds=2)
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
    expect = codec.schema(nn.init_model(load_config(DEMO_CFG).build_arch(), 0))
    return run_with_one_bad_payload(monkeypatch, lambda blob: codec.dense_encode(
        corrupt(codec.decode_params(blob, expect)[0])))


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


def metrics_of(phase, uploads, dense_uploads, download, rnd=0):
    """RoundMetrics of one round with the given per-client byte counts."""
    return RoundMetrics(
        rnd, phase, 1.0, 1.0, sum(uploads), len(uploads) * download,
        sum(dense_uploads), total_s=0.0,
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
