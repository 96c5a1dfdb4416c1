"""Workloads of the fedprune benchmark and the independent oracle its
correctness checks compare against.

Every workload is one whole ``federation.run_experiment`` of LeNet-5
(431,080 parameters) on synthetic 1x28x28 ten-class images with an IID
split.  The inputs come only from the benchmark's ``--seed``.  The oracle
below derives wire sizes and pruning budgets from the LeNet-5 layer shapes,
the wire layouts documented in ``codec`` and ``secure``, and the keep table;
it calls no fedprune code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

IMAGE_SHAPE = (1, 28, 28)
NUM_CLASSES = 10
NUM_TRAIN = 1000
NUM_TEST = 300
NOISE = 1.0              # per-pixel noise around each class's mean image
N_STAGES = 4             # geometric keep-fraction ramp of the paper

# Keep table of configs/mnist_iid_cr87.cfg: 4,951 of 430,500 weights (CR 86.95).
# Copied rather than read so that the workloads stay fixed when configs change.
CR87_KEEP = {"conv1": 0.5, "conv2": 0.06, "fc1": 0.0055025, "fc2": 0.2}
RHO = 1e-3

# LeNet-5 (Caffe variant): layer id, weight shape, bias length.
LENET5 = (
    ("conv1", (20, 1, 5, 5), 20),
    ("conv2", (50, 20, 5, 5), 50),
    ("fc1", (800, 500), 500),
    ("fc2", (500, 10), 10),
)

# secure framing: magic 4 | version 1 | client_id 4 | round 4 | format 1 |
# nonce 12 | ciphertext_len 8, then the ciphertext with its 16-byte GCM tag.
AEAD_OVERHEAD = 4 + 1 + 4 + 4 + 1 + 12 + 8 + 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str                      # admm | masked | dense
    num_clients: int
    clients_per_round: int
    warmup_rounds: int
    pruning_rounds: int
    min_accuracy: float | None     # floor on final accuracy (chance is 0.1), None: unchecked
    lr: float = 0.02
    batch_size: int = 10
    local_epochs: int = 1
    admm_stage_rounds: int = 1

    @property
    def rounds(self) -> int:
        return self.warmup_rounds + self.pruning_rounds

    @property
    def examples_per_client(self) -> int:
        return NUM_TRAIN // self.num_clients

    @property
    def uploads(self) -> int:
        return self.rounds * self.clients_per_round

    @property
    def samples(self) -> int:
        """Local training examples processed over one run."""
        return self.uploads * self.local_epochs * self.examples_per_client

    def config_kwargs(self, seed: int) -> dict:
        """Keyword arguments for ``federation.ExperimentConfig``."""
        return dict(
            arch="lenet5",
            num_clients=self.num_clients, clients_per_round=self.clients_per_round,
            local_epochs=self.local_epochs, batch_size=self.batch_size,
            lr=self.lr, momentum=0.9, partition="iid", mode=self.mode,
            warmup_rounds=self.warmup_rounds, pruning_rounds=self.pruning_rounds,
            admm_stage_rounds=self.admm_stage_rounds, seed=seed,
            bandwidth_mbps=None, eval_examples=None, eval_batch_size=512)

    def keep_for_round(self, rnd: int) -> dict[str, float] | None:
        """Keep fractions that bound round ``rnd``'s uploads; None: dense."""
        if self.mode == "dense" or rnd < self.warmup_rounds:
            return None
        p = rnd - self.warmup_rounds
        ramp = min(N_STAGES * self.admm_stage_rounds, self.pruning_rounds)
        if p >= ramp:
            return CR87_KEEP
        stage = min(N_STAGES - 1, p * N_STAGES // ramp)
        return {lid: f ** ((stage + 1) / N_STAGES) for lid, f in CR87_KEEP.items()}

    def final_nnz(self) -> dict[str, int]:
        if self.mode == "dense":
            return {lid: math.prod(shape) for lid, shape, _ in LENET5}
        return budgets(CR87_KEEP)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="lenet_admm_cr87",
        why="paper pipeline: warm-up, 4-stage ADMM ramp and masked fine-tune at "
            "CR~87; backward, ADMM penalty and evaluation dominate",
        mode="admm", num_clients=10, clients_per_round=3,
        warmup_rounds=1, pruning_rounds=5, min_accuracy=0.3),
    Workload(
        name="lenet_masked_fanin",
        why="25 clients a round with two minibatches each, masked at CR~87; "
            "per-update projection and enclave CSR decode dominate",
        mode="masked", num_clients=50, clients_per_round=25,
        warmup_rounds=1, pruning_rounds=2, min_accuracy=None),
    Workload(
        name="lenet_dense",
        why="dense baseline on the same model and data: no projection or CSR, "
            "1.7 MB AES-GCM uploads; pruning and codec changes show no change here",
        mode="dense", num_clients=10, clients_per_round=3,
        warmup_rounds=0, pruning_rounds=6, min_accuracy=0.3),
)}


def make_dataset(seed: int):
    """Balanced Gaussian classes around random mean images, from ``seed``.

    Returns (train_x, train_y, test_x, test_y) as float64 / int64 arrays.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    centers = rng.normal(0.0, 1.0, size=(NUM_CLASSES, *IMAGE_SHAPE))

    def draw(n: int):
        y = np.arange(n, dtype=np.int64) % NUM_CLASSES
        rng.shuffle(y)
        return centers[y] + rng.normal(0.0, NOISE, size=(n, *IMAGE_SHAPE)), y

    return (*draw(NUM_TRAIN), *draw(NUM_TEST))


def budgets(keep: dict[str, float]) -> dict[str, int]:
    """Non-zero weights allowed per layer: max(1, round(f * size))."""
    sizes = {lid: math.prod(shape) for lid, shape, _ in LENET5}
    return {lid: max(1, int(round(f * sizes[lid]))) for lid, f in keep.items()}


def blob_size(nnz: dict[str, int] | None) -> int:
    """Bytes of a LeNet-5 codec blob: dense when ``nnz`` is None, else CSR
    with ``nnz`` non-zeros per layer (codec module docstring layout)."""
    total = 4 + 1 + 1 + 2                       # magic, version, format, layer count
    for lid, shape, bias in LENET5:
        total += 1 + len(lid.encode()) + 1 + 4 * len(shape)
        if nnz is None:
            total += 4 * math.prod(shape)
        else:                                   # rows, cols, nnz, row_ptr, col_idx, values
            total += 12 + 4 * (shape[0] + 1) + 8 * nnz[lid]
        total += 4 + 4 * bias
    return total


def upload_size(wl: Workload, rnd: int) -> int:
    """Wire bytes of one client upload in round ``rnd``."""
    keep = wl.keep_for_round(rnd)
    return AEAD_OVERHEAD + blob_size(None if keep is None else budgets(keep))
