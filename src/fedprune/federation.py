"""Federated orchestration: data partitioning, the round schedule
(warm-up -> staged pruning -> masked fine-tune), per-client local training,
and the end-to-end experiment loop over the encrypted channel.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import codec, datasets, enclave, nn, pruning, secure

log = logging.getLogger(__name__)

PHASE_WARMUP = "warmup"
PHASE_ADMM = "admm_prune"
PHASE_MASKED_PRUNE = "masked_prune"
PHASE_FINETUNE = "masked_finetune"
PHASE_DENSE = "dense"
# rounds whose uploads go CSR and count toward the communication saving
PRUNING_PHASES = (PHASE_ADMM, PHASE_MASKED_PRUNE, PHASE_FINETUNE)

N_PRUNE_STAGES = 4


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    assignments: dict[int, np.ndarray]   # client_id -> example indices

    def example_counts(self) -> dict[int, int]:
        return {cid: len(ix) for cid, ix in self.assignments.items()}


def partition_iid(dataset_size: int, num_clients: int, seed: int) -> Partition:
    """Shuffled, balanced, disjoint split; remainder examples are dropped."""
    if num_clients > dataset_size:
        raise ValueError(f"{num_clients} clients exceed {dataset_size} examples")
    per = dataset_size // num_clients
    dropped = dataset_size - per * num_clients
    if dropped:
        log.warning("IID partition drops %d remainder examples", dropped)
    perm = np.random.default_rng(seed).permutation(dataset_size)
    assignments = {cid: np.sort(perm[cid * per:(cid + 1) * per])
                   for cid in range(num_clients)}
    return Partition(assignments)


def partition_noniid(labels: np.ndarray, num_clients: int, num_shards: int,
                     shard_size: int, shards_per_client: int, seed: int) -> Partition:
    """Label-sorted contiguous shards assigned randomly without replacement,
    concentrating few distinct labels per client."""
    if num_shards != num_clients * shards_per_client:
        raise ValueError(f"num_shards={num_shards} != "
                         f"{num_clients} clients x {shards_per_client} shards")
    if num_shards * shard_size > len(labels):
        raise ValueError(f"{num_shards} shards x {shard_size} exceed "
                         f"{len(labels)} examples")
    order = np.argsort(labels, kind="stable")
    shards = order[:num_shards * shard_size].reshape(num_shards, shard_size)
    shard_perm = np.random.default_rng(seed).permutation(num_shards)
    assignments = {}
    for cid in range(num_clients):
        own = shard_perm[cid * shards_per_client:(cid + 1) * shards_per_client]
        assignments[cid] = np.sort(np.concatenate([shards[s] for s in own]))
    return Partition(assignments)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_ARCHES = {
    "mlp": nn.mlp,
    "lenet5": nn.lenet5,
    "small_convnet": nn.small_convnet,
}


@dataclass(frozen=True)
class ExperimentConfig:
    arch: str = "mlp"
    arch_params: dict = field(default_factory=dict)
    dataset: str = "synthetic"             # synthetic | synthetic-images | mnist
    dataset_params: dict = field(default_factory=dict)
    data_dir: str | None = None

    num_clients: int = 100
    clients_per_round: int = 10
    local_epochs: int = 5
    batch_size: int = 10
    lr: float = 0.01
    momentum: float = 0.9
    partition: str = "iid"                 # iid | noniid
    shards_per_client: int = 2
    shard_size: int | None = None          # default: train_size / num_shards

    mode: str = "admm"                     # admm | masked | dense
    warmup_rounds: int = 10
    pruning_rounds: int = 50
    admm_stage_rounds: int = 3             # rounds per ramp stage (4 stages)
    sparsity: pruning.SparsityConfig | None = None

    seed: int = 0
    bandwidth_mbps: float | None = None    # None: no transfer throttling
    eval_examples: int | None = None       # None: full test set each round
    eval_batch_size: int = 512

    def __post_init__(self):
        if self.clients_per_round > self.num_clients:
            raise ValueError("clients_per_round exceeds num_clients")
        if self.warmup_rounds + self.pruning_rounds < 1:
            raise ValueError("at least one round required")
        if self.mode not in ("admm", "masked", "dense"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.arch not in _ARCHES:
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.mode != "dense" and self.pruning_rounds > 0 and self.sparsity is None:
            raise ValueError(f"mode {self.mode!r} needs a sparsity config")
        if self.admm_stage_rounds < 1:
            raise ValueError("admm_stage_rounds must be at least 1")

    def total_rounds(self) -> int:
        return self.warmup_rounds + self.pruning_rounds

    def build_arch(self) -> nn.ModelArch:
        return _ARCHES[self.arch](**self.arch_params)

    def load_dataset(self) -> datasets.Dataset:
        if self.dataset == "mnist":
            return datasets.load_mnist(self.data_dir)
        if self.dataset == "synthetic":
            return datasets.synthetic_blobs(**{"seed": self.seed, **self.dataset_params})
        if self.dataset == "synthetic-images":
            return datasets.synthetic_images(**{"seed": self.seed, **self.dataset_params})
        raise ValueError(f"unknown dataset {self.dataset!r}")


@dataclass(frozen=True)
class RoundMetrics:
    """One round's record.  Byte counts are summed over the sampled clients;
    the broadcast is always dense, so bytes_down is also its own dense
    equivalent."""

    round_index: int
    phase: str
    accuracy: float
    keep_fraction: float
    bytes_up: int
    bytes_down: int
    dense_bytes_up: int        # what the same uploads would cost dense
    attestation_s: float
    provisioning_s: float
    transmission_s: float
    ecall_s: float
    ocall_s: float
    local_training_s: float
    aggregation_s: float
    eval_s: float
    total_s: float

    TIME_FIELDS = ("attestation_s", "provisioning_s", "transmission_s",
                   "ecall_s", "ocall_s", "local_training_s", "aggregation_s",
                   "eval_s")

    def component_sum(self) -> float:
        return sum(getattr(self, f) for f in self.TIME_FIELDS)


def pruning_phase_bytes(metrics: list[RoundMetrics]) -> tuple[int, int]:
    """(actual, dense-equivalent) bytes up and down over pruning-phase rounds."""
    rounds = [m for m in metrics if m.phase in PRUNING_PHASES]
    return (sum(m.bytes_up + m.bytes_down for m in rounds),
            sum(m.dense_bytes_up + m.bytes_down for m in rounds))


def saving_percent(metrics: list[RoundMetrics]) -> float:
    """100 * (1 - actual/dense-equivalent) over pruning-phase rounds."""
    actual, dense = pruning_phase_bytes(metrics)
    return 100.0 * (1.0 - actual / dense) if dense else 0.0


# ---------------------------------------------------------------------------
# Round schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundPlan:
    phase: str
    stage_cfg: pruning.SparsityConfig | None   # budgets for this round's uploads
    finalize_after: bool                       # hard-prune the global model after


def stage_keep_config(cfg: pruning.SparsityConfig, stage: int,
                      n_stages: int = N_PRUNE_STAGES) -> pruning.SparsityConfig:
    """Geometric keep-fraction ramp: stage j uses f^((j+1)/n) per layer, so the
    last stage lands exactly on the configured fractions."""
    power = (stage + 1) / n_stages
    return replace(cfg, keep={lid: f ** power for lid, f in cfg.keep.items()})


def plan_round(cfg: ExperimentConfig, round_index: int) -> RoundPlan:
    if cfg.mode == "dense":
        return RoundPlan(PHASE_DENSE, None, False)
    if round_index < cfg.warmup_rounds:
        return RoundPlan(PHASE_WARMUP, None, False)
    r = round_index - cfg.warmup_rounds
    ramp = min(N_PRUNE_STAGES * cfg.admm_stage_rounds, cfg.pruning_rounds)
    if r < ramp:
        stage = min(N_PRUNE_STAGES - 1, r * N_PRUNE_STAGES // ramp)
        phase = PHASE_ADMM if cfg.mode == "admm" else PHASE_MASKED_PRUNE
        finalize = cfg.mode == "admm" and r == ramp - 1
        return RoundPlan(phase, stage_keep_config(cfg.sparsity, stage), finalize)
    if cfg.mode == "admm":
        return RoundPlan(PHASE_FINETUNE, cfg.sparsity, False)
    return RoundPlan(PHASE_MASKED_PRUNE, cfg.sparsity, False)


# ---------------------------------------------------------------------------
# Local training
# ---------------------------------------------------------------------------

def client_round(arch: nn.ModelArch, global_params: nn.ParameterSet,
                 x: np.ndarray, y: np.ndarray, cfg: ExperimentConfig,
                 plan: RoundPlan, admm_state: pruning.ADMMState | None,
                 mask: pruning.PruneMask | None, seed: int,
                 ) -> tuple[nn.ParameterSet, pruning.ADMMState | None]:
    """Local epochs of momentum SGD; returns the upload-ready update and the
    client's advanced ADMM state (when in the ADMM phase).

    warmup/dense: plain SGD, dense upload.
    admm_prune:   SGD + rho*(W - Z + U) term, then one Z/U update, upload
                  projected to the stage budgets.
    masked_prune: plain SGD, outgoing update magnitude-masked per layer.
    masked_finetune: gradients zeroed on the shared mask, upload stays sparse.
    """
    rng = np.random.default_rng(seed)
    params = global_params
    velocity = None
    n = len(y)
    if plan.phase == PHASE_ADMM and admm_state is None:
        admm_state = pruning.admm_init(params, plan.stage_cfg)

    if cfg.lr > 0:
        for _ in range(cfg.local_epochs):
            perm = rng.permutation(n)
            for lo in range(0, n, cfg.batch_size):
                ix = perm[lo:lo + cfg.batch_size]
                batch = nn.Batch(x[ix], y[ix])
                grad = nn.backward(arch, params, batch)
                if plan.phase == PHASE_ADMM:
                    grad = _add(grad, pruning.admm_reg_gradient(params, admm_state))
                elif plan.phase == PHASE_FINETUNE and mask is not None:
                    grad = pruning.apply_mask(grad, mask)
                velocity = grad if velocity is None else _axpy(cfg.momentum, velocity, grad)
                params = nn.sgd_step(params, velocity, cfg.lr)

    if plan.phase == PHASE_ADMM:
        admm_state = pruning.admm_z_step(params, admm_state, plan.stage_cfg)
        admm_state = pruning.admm_u_step(params, admm_state)
    if plan.phase in (PHASE_ADMM, PHASE_MASKED_PRUNE):
        update = pruning.final_hard_prune(params, plan.stage_cfg)[0]
    elif plan.phase == PHASE_FINETUNE and mask is not None:
        update = pruning.apply_mask(params, mask)   # no-op safety net
    else:
        update = params
    return update, admm_state


def _add(a: nn.Gradient, b: nn.Gradient) -> nn.Gradient:
    return a.map(lambda lid, w, bias: (w + b[lid].weight, bias + b[lid].bias))


def _axpy(factor: float, v: nn.Gradient, g: nn.Gradient) -> nn.Gradient:
    return v.map(lambda lid, w, bias: (factor * w + g[lid].weight,
                                       factor * bias + g[lid].bias))


# ---------------------------------------------------------------------------
# Network emulation
# ---------------------------------------------------------------------------

class NetworkSimulator:
    """Transfers cost wall-clock time at the configured bandwidth; with no
    bandwidth set a transfer hands the payload over at once."""

    def __init__(self, bandwidth_mbps: float | None):
        self.bytes_per_second = bandwidth_mbps * 1e6 if bandwidth_mbps else None

    def transmit(self, payload: bytes) -> bytes:
        if self.bytes_per_second:
            time.sleep(len(payload) / self.bytes_per_second)
        return payload


# ---------------------------------------------------------------------------
# Experiment loop
# ---------------------------------------------------------------------------

class ExperimentAborted(RuntimeError):
    """Unrecoverable error mid-run; carries the partial result for flushing."""

    def __init__(self, cause: BaseException, partial: "ExperimentResult"):
        super().__init__(f"experiment aborted: {cause}")
        self.cause = cause
        self.partial = partial


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    metrics: list[RoundMetrics]
    global_params: nn.ParameterSet
    mask: pruning.PruneMask | None
    final_accuracy: float
    compression_rate: float


def _client_seed(base: int, round_index: int, client_id: int) -> int:
    return int(np.random.SeedSequence([base, 0x5EED, round_index, client_id])
               .generate_state(1)[0])


def run_experiment(cfg: ExperimentConfig,
                   dataset: datasets.Dataset | None = None,
                   progress=None) -> ExperimentResult:
    """Run the full schedule; one RoundMetrics per round.

    Every round: publish the global model (ocall, dense broadcast), sampled
    clients train locally, encrypt their (possibly sparsified) updates, the
    enclave decrypts and federated-averages them, and the new model is
    evaluated; the round's RoundMetrics records its byte traffic and where
    its wall time went.  Fixed seeds give identical metrics apart from
    wall-clock timing fields.  An unrecoverable error raises
    ExperimentAborted carrying the rounds completed so far.
    """
    metrics: list[RoundMetrics] = []
    snapshot: dict = {"params": None, "mask": None}
    try:
        return _run_rounds(cfg, dataset, progress, metrics, snapshot)
    except Exception as exc:
        partial = ExperimentResult(cfg, metrics, snapshot["params"],
                                   snapshot["mask"], float("nan"), float("nan"))
        raise ExperimentAborted(exc, partial) from exc


@contextmanager
def _span(times: dict[str, float], time_field: str):
    """Add the wall time spent in the block to times[time_field]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        times[time_field] += time.perf_counter() - t0


def _run_rounds(cfg: ExperimentConfig, dataset, progress,
                metrics: list[RoundMetrics], snapshot: dict) -> ExperimentResult:
    dataset = dataset if dataset is not None else cfg.load_dataset()
    arch = cfg.build_arch()
    ss = np.random.SeedSequence(cfg.seed)
    s_partition, s_init, s_sample, s_crypto = (int(s.generate_state(1)[0])
                                               for s in ss.spawn(4))

    if cfg.partition == "iid":
        part = partition_iid(len(dataset.train_y), cfg.num_clients, s_partition)
    elif cfg.partition == "noniid":
        num_shards = cfg.num_clients * cfg.shards_per_client
        shard_size = cfg.shard_size or len(dataset.train_y) // num_shards
        part = partition_noniid(dataset.train_y, cfg.num_clients, num_shards,
                                shard_size, cfg.shards_per_client, s_partition)
    else:
        raise ValueError(f"unknown partition {cfg.partition!r}")
    counts = part.example_counts()

    eval_x, eval_y = dataset.test_x, dataset.test_y
    if cfg.eval_examples is not None:
        eval_x, eval_y = eval_x[:cfg.eval_examples], eval_y[:cfg.eval_examples]

    # attestation for all clients up front; charged to round 0
    times = dict.fromkeys(RoundMetrics.TIME_FIELDS, 0.0)
    with _span(times, "attestation_s"):
        crypto_rng = np.random.default_rng(s_crypto)
        manager = secure.KeyManager(seed=s_crypto)
        channels = {cid: secure.attest_and_exchange(cid, manager, crypto_rng)
                    for cid in range(cfg.num_clients)}

    ctx = enclave.EnclaveContext(key_manager=manager)
    net = NetworkSimulator(cfg.bandwidth_mbps)
    sample_rng = np.random.default_rng(s_sample)

    global_params = nn.init_model(arch, s_init)
    snapshot["params"] = global_params
    schema = codec.schema(global_params)
    mask: pruning.PruneMask | None = None
    admm_states: dict[int, pruning.ADMMState] = {}

    for rnd in range(cfg.total_rounds()):
        plan = plan_round(cfg, rnd)
        round_t0 = time.perf_counter()
        if rnd:
            times = dict.fromkeys(RoundMetrics.TIME_FIELDS, 0.0)

        # broadcast: publish dense global model out of the enclave
        with _span(times, "ocall_s"):
            blob_down = enclave.publish_model(global_params, ctx)
        selected = np.sort(sample_rng.choice(cfg.num_clients, cfg.clients_per_round,
                                             replace=False))

        if plan.phase in PRUNING_PHASES:
            encode, fmt = codec.csr_encode, codec.FORMAT_CSR
        else:
            encode, fmt = codec.dense_encode, codec.FORMAT_DENSE
        encs: list[secure.EncryptedUpdate] = []
        bytes_up = 0
        for cid in selected:
            cid = int(cid)
            with _span(times, "transmission_s"):
                wire_down = net.transmit(blob_down)
            with _span(times, "local_training_s"):
                ix = part.assignments[cid]
                update, state = client_round(
                    arch, codec.decode_params(wire_down, schema)[0], dataset.train_x[ix],
                    dataset.train_y[ix], cfg, plan, admm_states.get(cid), mask,
                    _client_seed(cfg.seed, rnd, cid))
                if state is not None:
                    admm_states[cid] = state
            with _span(times, "provisioning_s"):
                sealed = channels[cid].encrypt_update(encode(update), rnd, fmt).to_bytes()
            with _span(times, "transmission_s"):
                wire_up = net.transmit(sealed)
            with _span(times, "provisioning_s"):
                encs.append(secure.EncryptedUpdate.from_bytes(wire_up))
                bytes_up += len(wire_up)

        with _span(times, "ecall_s"):
            agg_input, rejections = enclave.enclave_load(encs, ctx, counts)
        for rej in rejections:
            log.warning("round %d: client %d rejected: %s", rnd, rej.client_id, rej.reason)
        if not agg_input.records:
            raise RuntimeError(f"round {rnd}: all client updates rejected")
        with _span(times, "aggregation_s"):
            global_params = enclave.fedavg(agg_input)
            if plan.finalize_after:
                global_params, mask = pruning.final_hard_prune(global_params, cfg.sparsity)
            snapshot["params"], snapshot["mask"] = global_params, mask

        keep = (pruning.overall_keep_fraction(global_params, plan.stage_cfg)
                if plan.stage_cfg else 1.0)
        with _span(times, "eval_s"):
            acc = nn.evaluate(arch, global_params, eval_x, eval_y, cfg.eval_batch_size)
        rm = RoundMetrics(
            round_index=rnd, phase=plan.phase, accuracy=acc, keep_fraction=keep,
            bytes_up=bytes_up, bytes_down=cfg.clients_per_round * len(blob_down),
            dense_bytes_up=cfg.clients_per_round * (
                len(blob_down) + secure.HEADER.size + secure.TAG_SIZE),
            total_s=time.perf_counter() - round_t0 + times["attestation_s"], **times)
        metrics.append(rm)
        if progress:
            progress(rm)

    final_params = global_params
    if cfg.mode == "masked" and cfg.sparsity is not None and cfg.pruning_rounds > 0:
        # baseline updates are masked per client; report the hard-pruned model
        final_params, mask = pruning.final_hard_prune(global_params, cfg.sparsity)
    final_acc = nn.evaluate(arch, final_params, eval_x, eval_y, cfg.eval_batch_size)
    try:
        cr = pruning.compression_rate(final_params)
    except ValueError:
        cr = 1.0
    return ExperimentResult(cfg, metrics, final_params, mask, final_acc, cr)
