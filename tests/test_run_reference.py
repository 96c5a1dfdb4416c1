"""Whole runs of ``federation.run_experiment`` against reference.py's
textbook run: the final model's bytes, every round's accuracy and the final
accuracy must be equal, for the shipped demo config, a LeNet-5 run, configs
drawn at random, and a run whose faulty uploads the enclave must reject."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedprune import codec, enclave, nn, report, secure
from fedprune.config import load_config
from fedprune.federation import (PHASE_ADMM, PHASE_FINETUNE, PHASE_WARMUP, ExperimentAborted,
                                 ExperimentConfig, plan_round, run_experiment)
from fedprune.pruning import SparsityConfig
from reference import (ref_budget, ref_cohorts, ref_decode, ref_encode, ref_frame, ref_seal,
                       reference_run, same_params)
from test_federation import DEMO_CFG, tiny_cfg
from test_pruning import LENET_KEEP_CR87


def assert_same_run(cfg, res=None, left_out=()):
    """res (by default run_experiment(cfg)) is reference_run(cfg, left_out)."""
    res = run_experiment(cfg) if res is None else res
    model, accuracies, final_accuracy = reference_run(cfg, left_out)
    assert [m.accuracy for m in res.metrics] == accuracies
    assert res.final_accuracy == final_accuracy
    assert same_params(res.global_params, model)


@pytest.mark.parametrize("mode", ["admm", "masked", "dense"])
def test_demo_config(mode):
    assert_same_run(load_config(DEMO_CFG, mode=mode, pruning_rounds=6))


def test_lenet5_through_warmup_ramp_and_finetune():
    # one client a round, since each projection of fc1 is a 400,000-entry
    # argsort: client 1 trains in ADMM rounds 1, 2 and 4, so it resumes a
    # stale Z and U, and client 0 starts its ADMM state in round 3
    cfg = ExperimentConfig(
        arch="lenet5", dataset="synthetic-images",
        dataset_params={"num_train": 20, "num_test": 20, "channels": 1, "side": 28},
        num_clients=2, clients_per_round=1, local_epochs=2, batch_size=4,
        warmup_rounds=1, pruning_rounds=5, admm_stage_rounds=1,
        sparsity=SparsityConfig(keep=LENET_KEEP_CR87, rho=0.01), seed=4)
    assert [plan_round(cfg, rnd).phase for rnd in range(cfg.total_rounds())] == \
        [PHASE_WARMUP] + [PHASE_ADMM] * 4 + [PHASE_FINETUNE]
    assert_same_run(cfg)


# -- configs drawn at random --------------------------------------------------

@st.composite
def experiment_configs(draw):
    """mlp or small_convnet on tiny synthetic data, over the options a run's
    bytes depend on: partition, mode, client counts, epochs, batch size, lr,
    momentum, keep fractions on a subset of layers, stage rounds and the
    evaluation sizes."""
    classes = draw(st.integers(2, 4))
    if draw(st.booleans()):
        dims = (draw(st.integers(2, 12)),
                *draw(st.lists(st.integers(2, 10), min_size=1, max_size=2)), classes)
        arch = nn.mlp(dims)
        model = dict(arch="mlp", arch_params={"dims": dims}, dataset="synthetic",
                     dataset_params={"num_features": dims[0]})
    else:
        # 16 and 20 are the smallest sides whose two 5x5 conv + 2x2 pool
        # stages divide evenly; 12 and 13 raise ShapeError
        channels, side = draw(st.integers(1, 2)), draw(st.sampled_from([16, 20]))
        arch = nn.small_convnet(channels, side, classes)
        model = dict(arch="small_convnet",
                     arch_params={"in_ch": channels, "side": side, "num_classes": classes},
                     dataset="synthetic-images",
                     dataset_params={"channels": channels, "side": side})
    num_test, num_clients = draw(st.integers(1, 20)), draw(st.integers(1, 5))
    model["dataset_params"].update(num_train=draw(st.integers(10, 40)), num_test=num_test,
                                   num_classes=classes)
    warmup_rounds = draw(st.integers(0, 2))
    layers = [l.name for l in arch.param_layers()]
    return ExperimentConfig(
        **model, num_clients=num_clients,
        clients_per_round=draw(st.integers(1, num_clients)),
        local_epochs=draw(st.integers(0, 2)), batch_size=draw(st.integers(1, 11)),
        lr=draw(st.sampled_from([0.0, 0.01, 0.05])), momentum=draw(st.sampled_from([0.0, 0.9])),
        partition=draw(st.sampled_from(["iid", "noniid"])),
        mode=draw(st.sampled_from(["admm", "masked", "dense"])),
        warmup_rounds=warmup_rounds, pruning_rounds=draw(st.integers(warmup_rounds == 0, 3)),
        admm_stage_rounds=draw(st.integers(1, 2)),
        sparsity=SparsityConfig(keep=draw(st.dictionaries(
            st.sampled_from(layers), st.floats(0.05, 1.0), min_size=1)),
            rho=draw(st.sampled_from([1e-3, 0.05]))),
        seed=draw(st.integers(0, 2**16)),
        eval_examples=draw(st.none() | st.integers(1, num_test)),
        eval_batch_size=draw(st.integers(1, 600)))


# as many examples as the hypothesis profile asks for (see conftest.py)
@settings(deadline=None)
@given(experiment_configs())
def test_drawn_config(cfg):
    assert_same_run(cfg)


# -- faults ---------------------------------------------------------------------

# Each fault in a dense round and in a CSR round, over budget in CSR rounds
# only.  A duplicate or a replay arrives beside the honest upload, which
# still counts; every other faulty upload is left out of the average.
FAULTS = ("replay", "drop", "bitflip", "duplicate", "stale", "future", "nonce", "unknown",
          "format", "shape", "oversized", "nan", "budget")
UNKNOWN = 999                              # a client id that never attests

# dense warm-up rounds 0-4, CSR rounds 5-9: four ADMM rounds and a fine-tune
FAULT_CFG = tiny_cfg(clients_per_round=4, warmup_rounds=5, pruning_rounds=5)


def fault_schedule(cfg):
    """{(round, client): fault}: from round 1 on, the next faults of the
    round's format go to all but the last of its sampled clients, those
    sampled before first, so the replay, first in its round, has a record."""
    cohorts, schedule = ref_cohorts(cfg), {}
    queues = {"dense": list(FAULTS[:-1]), "csr": list(FAULTS)}
    for rnd in range(1, cfg.total_rounds()):
        queue = queues["dense" if plan_round(cfg, rnd).stage_cfg is None else "csr"]
        seen = {cid for cohort in cohorts[:rnd] for cid in cohort}
        for cid in sorted(cohorts[rnd], key=lambda c: c not in seen)[:-1]:
            if queue:
                schedule[rnd, cid] = queue.pop(0)
    assert queues == {"dense": [], "csr": []}
    return schedule


def arrivals(fault, cfg, rnd, cid, honest, earlier, key, blob, fmt, schema):
    """[(raw record, the reason it is rejected for, or None)] that reach the
    enclave in place of client cid's upload honest of round rnd, which sealed
    blob in format byte fmt under key; earlier is its last (round, record)."""
    name, other, (lid, shape, _) = codec.FORMAT_NAMES[fmt], codec.FORMAT_NAMES[1 - fmt], schema[0]
    params, size = ref_decode(blob), int(np.prod(shape))
    published = f"layer {lid}: id or dims differ from the published {shape}"

    def seal(payload, c=cid, r=rnd, f=fmt, nonce=None):
        return ref_seal(key, c, r, f, payload, nonce)

    def weights(fn):     # payload of the upload with fn of each weight tensor
        return ref_encode(params.map(lambda l, w, b: (fn(l, w), b)), name)
    return {
        "drop": lambda: [],
        "bitflip": lambda: [(honest[:-1] + bytes([honest[-1] ^ 1]),
                             "authentication tag mismatch")],
        "duplicate": lambda: [(honest, None), (honest, f"replayed record from client {cid}")],
        "replay": lambda: [(honest, None),
                           (earlier[1], f"sealed for round {earlier[0]}, not {rnd}")],
        "stale": lambda: [(seal(blob, r=rnd - 1), f"sealed for round {rnd - 1}, not {rnd}")],
        "future": lambda: [(seal(blob, r=rnd + 1), f"sealed for round {rnd + 1}, not {rnd}")],
        "nonce": lambda: [(seal(blob, nonce=secure.NONCE.pack(cid, rnd + 1)),
                           "nonce differs from the header's client and round")],
        "unknown": lambda: [(seal(blob, c=UNKNOWN), f"unknown client {UNKNOWN}")],
        "format": lambda: [(seal(blob, f=1 - fmt),
                            f"header format {other} differs from the payload's {name}")],
        "shape": lambda: [(seal(weights(lambda l, w: w[:-1] if l == lid else w)), published)],
        # 2**32-1 weights in every layer, 32 GiB in fp64
        "oversized": lambda: [(seal(ref_frame(name, [
            (l, (1, 2**32 - 1), (1, 2**32 - 1, [0, 0], [], []) if name == "csr" else [], [])
            for l, _, _ in schema])), published)],
        "nan": lambda: [(seal(weights(lambda l, w: np.where(w == 0.0, w, np.nan))),
                         "update holds non-finite values")],
        "budget": lambda: [(seal(weights(lambda l, w: np.where(w == 0.0, 1e-3, w))),
                            f"layer {lid} has {size} non-zeros, above its budget of "
                            f"{ref_budget(size, plan_round(cfg, rnd).stage_cfg.keep[lid])}")],
    }[fault]()


def run_with_faults(monkeypatch, cfg, schedule):
    """run_experiment(cfg) with each scheduled fault injected as its upload
    reaches the enclave: the result (partial if the run aborted), and per
    upload (round, client, fault or None, the rejections wanted)."""
    real_seal, real_load = secure.ClientChannel.encrypt_update, enclave.enclave_load
    sealed, loads = {}, []      # (round, client) -> (raw record, key, blob, format byte)

    def seal(channel, blob, rnd, fmt):
        enc = real_seal(channel, blob, rnd, fmt)
        sealed[rnd, channel.client_id] = enc.to_bytes(), channel.sk, blob, fmt
        return enc

    def load(encs, ctx, counts):
        rnd, cid = ctx.round, encs[0].client_id
        fault, (honest, *sealed_as) = schedule.get((rnd, cid)), sealed[rnd, cid]
        earlier = max(((r, s[0]) for (r, c), s in sealed.items() if c == cid and r < rnd),
                      default=None)
        arrived = arrivals(fault, cfg, rnd, cid, honest, earlier, *sealed_as, ctx.schema) \
            if fault else [(honest, None)]
        loads.append((rnd, cid, fault, [(UNKNOWN if fault == "unknown" else cid, why)
                                        for _, why in arrived if why]))
        return real_load([secure.EncryptedUpdate.from_bytes(raw) for raw, _ in arrived],
                         ctx, counts)

    monkeypatch.setattr(secure.ClientChannel, "encrypt_update", seal)
    monkeypatch.setattr(enclave, "enclave_load", load)
    try:
        return run_experiment(cfg), loads
    except ExperimentAborted as exc:
        return exc.partial, loads


def test_faults_cost_only_the_faulty_uploads(monkeypatch, tmp_path):
    schedule = fault_schedule(FAULT_CFG)
    res, loads = run_with_faults(monkeypatch, FAULT_CFG, schedule)
    assert len(res.metrics) == FAULT_CFG.total_rounds()
    # exactly the faulty records are rejected, each for its own reason, as
    # each round's metrics report them; a failure lists each round's faults
    # with the rejections wanted and those reported
    wanted = [[why for r, _, _, want in loads if r == rnd for why in want]
              for rnd in range(len(res.metrics))]
    assert [([fault for r, _, fault, _ in loads if r == m.round_index and fault],
             want, list(m.rejections))
            for m, want in zip(res.metrics, wanted) if list(m.rejections) != want] == []
    assert {(rnd, cid): fault for rnd, cid, fault, _ in loads if fault} == schedule
    with open(report.write_report(res, tmp_path)["rounds"]) as f:
        assert [int(row["rejected"]) for row in csv.DictReader(f)] == list(map(len, wanted))
    assert_same_run(FAULT_CFG, res, left_out={
        key for key, fault in schedule.items() if fault not in ("duplicate", "replay")})
