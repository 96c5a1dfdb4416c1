"""Whole runs of ``federation.run_experiment`` against reference.py's
textbook run: the final model's bytes, every round's accuracy and the final
accuracy must be equal."""

from pathlib import Path

import pytest

from fedprune.config import load_config
from fedprune.federation import (PHASE_ADMM, PHASE_FINETUNE, PHASE_WARMUP, ExperimentConfig,
                                 plan_round, run_experiment)
from fedprune.pruning import SparsityConfig
from reference import reference_run, same_params
from test_pruning import LENET_KEEP_CR87

DEMO_CFG = Path(__file__).resolve().parent.parent / "configs" / "demo_synthetic.cfg"


def assert_same_run(cfg):
    res = run_experiment(cfg)
    model, accuracies, final_accuracy = reference_run(cfg)
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
