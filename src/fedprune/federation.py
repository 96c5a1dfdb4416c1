"""Federated orchestration: data partitioning, the round schedule
(warm-up -> staged pruning -> masked fine-tune), per-client local training,
and the end-to-end experiment loop over the encrypted channel.
"""

from __future__ import annotations

import inspect
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
# rounds counted in the communication saving: exactly those with a stage_cfg
PRUNING_PHASES = (PHASE_ADMM, PHASE_MASKED_PRUNE, PHASE_FINETUNE)

N_PRUNE_STAGES = 4
SHARDS_PER_CLIENT = 2    # label shards per client under partition = noniid


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def partition_iid(dataset_size: int, num_clients: int, seed: int) -> dict[int, np.ndarray]:
    """Shuffled, balanced, disjoint split; remainder examples are dropped."""
    if num_clients > dataset_size:
        raise ValueError(f"{num_clients} clients exceed {dataset_size} examples")
    per = dataset_size // num_clients
    dropped = dataset_size - per * num_clients
    if dropped:
        log.warning("IID partition drops %d remainder examples", dropped)
    perm = np.random.default_rng(seed).permutation(dataset_size)
    return {cid: np.sort(perm[cid * per:(cid + 1) * per])
            for cid in range(num_clients)}


def partition_noniid(labels: np.ndarray, num_clients: int, seed: int) -> dict[int, np.ndarray]:
    """Label-sorted contiguous shards, SHARDS_PER_CLIENT per client, assigned
    randomly without replacement so each client sees few labels (McMahan et
    al. 2017); shards hold len(labels) // num_shards examples, the rest drop."""
    num_shards = num_clients * SHARDS_PER_CLIENT
    if num_shards > len(labels):
        raise ValueError(f"{num_clients} clients x {SHARDS_PER_CLIENT} shards "
                         f"exceed {len(labels)} examples")
    shard_size = len(labels) // num_shards
    order = np.argsort(labels, kind="stable")
    shards = order[:num_shards * shard_size].reshape(num_shards, shard_size)
    shard_perm = np.random.default_rng(seed).permutation(num_shards)
    assignments = {}
    for cid in range(num_clients):
        own = shard_perm[cid * SHARDS_PER_CLIENT:(cid + 1) * SHARDS_PER_CLIENT]
        assignments[cid] = np.sort(np.concatenate([shards[s] for s in own]))
    return assignments


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_ARCHES = {
    "mlp": nn.mlp,
    "lenet5": nn.lenet5,
    "small_convnet": nn.small_convnet,
}
# generators whose keyword arguments dataset_params may set; mnist takes none
_DATASETS = {
    "synthetic": datasets.synthetic_blobs,
    "synthetic-images": datasets.synthetic_images,
    "mnist": None,
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
    partition: str = "iid"                 # iid | noniid (SHARDS_PER_CLIENT label shards)

    mode: str = "admm"                     # admm | masked | dense
    warmup_rounds: int = 10
    pruning_rounds: int = 50
    admm_stage_rounds: int = 3             # rounds per ramp stage (4 stages)
    sparsity: pruning.SparsityConfig | None = None

    seed: int = 0
    bandwidth_mbps: float | None = None    # link in megabits/s; None: free transfers
    eval_examples: int | None = None       # None: full test set each round
    eval_batch_size: int = 512

    # least values of the integer fields that have one (eval_examples may be None)
    _FLOORS = {"num_clients": 1, "clients_per_round": 1, "local_epochs": 0, "batch_size": 1,
               "warmup_rounds": 0, "pruning_rounds": 0, "admm_stage_rounds": 1,
               "eval_batch_size": 1}

    def __post_init__(self):
        for key, floor in self._FLOORS.items():
            if getattr(self, key) < floor:
                raise ValueError(f"{key} must be >= {floor}, not {getattr(self, key)}")
        if self.clients_per_round > self.num_clients:
            raise ValueError("clients_per_round exceeds num_clients")
        if self.warmup_rounds + self.pruning_rounds < 1:
            raise ValueError("at least one round required")
        if self.mode not in ("admm", "masked", "dense"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.arch not in _ARCHES:
            raise ValueError(f"unknown arch {self.arch!r}")
        try:
            arch = self.build_arch()
        except TypeError as exc:
            raise ValueError(f"bad [model] parameters for {self.arch}: {exc}") from exc
        if self.sparsity is not None:
            missing = set(self.sparsity.keep) - {l.name for l in arch.param_layers()}
            if missing:
                raise ValueError(f"keep fractions name unknown layers: {sorted(missing)}")
        if self.dataset not in _DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}")
        gen = _DATASETS[self.dataset]
        stray = set(self.dataset_params) - set(inspect.signature(gen).parameters if gen else ())
        if stray:
            raise ValueError(f"dataset {self.dataset!r} takes no parameters {sorted(stray)}")
        if self.partition not in ("iid", "noniid"):
            raise ValueError(f"unknown partition {self.partition!r}")
        if self.mode != "dense" and self.pruning_rounds > 0 and self.sparsity is None:
            raise ValueError(f"mode {self.mode!r} needs a sparsity config")
        if self.bandwidth_mbps is not None and not 0 < self.bandwidth_mbps < float("inf"):
            raise ValueError(f"bandwidth_mbps must be finite and > 0, not {self.bandwidth_mbps}")
        if not 0 <= self.lr < float("inf"):
            raise ValueError(f"lr must be finite and >= 0, not {self.lr}")
        if not 0 <= self.momentum < float("inf"):
            raise ValueError(f"momentum must be finite and >= 0, not {self.momentum}")
        if self.eval_examples is not None and self.eval_examples < 1:
            raise ValueError(f"eval_examples must be >= 1, not {self.eval_examples}")

    def total_rounds(self) -> int:
        return self.warmup_rounds + self.pruning_rounds

    def build_arch(self) -> nn.ModelArch:
        return _ARCHES[self.arch](**self.arch_params)

    def load_dataset(self) -> datasets.Dataset:
        if self.dataset == "mnist":
            return datasets.load_mnist(self.data_dir)
        return _DATASETS[self.dataset](**{"seed": self.seed, **self.dataset_params})


@dataclass(frozen=True)
class RoundMetrics:
    """One round's record.  Byte counts are summed over the sampled clients;
    the broadcast is always dense, so bytes_down is also its own dense
    equivalent.  attestation_s is the handshakes of the clients sampled for
    the first time this round; total_s is the round's wall time plus the
    modeled transmission_s.  rejections holds a (client id, reason) pair per
    upload the enclave refused this round, in arrival order."""

    round_index: int
    phase: str
    accuracy: float
    keep_fraction: float
    bytes_up: int
    bytes_down: int
    dense_bytes_up: int        # what the same uploads would cost dense
    trusted_peak_bytes: int    # enclave memory held at once (EnclaveContext.peak_bytes)
    attestation_s: float
    provisioning_s: float
    transmission_s: float
    ecall_s: float
    ocall_s: float
    local_training_s: float
    aggregation_s: float
    eval_s: float
    total_s: float
    rejections: tuple[tuple[int, str], ...] = ()

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
    stage_cfg: pruning.SparsityConfig | None   # upload budgets; None: dense round
    finalize_after: bool                       # hard-prune the global model after


def stage_keep_config(cfg: pruning.SparsityConfig, stage: int) -> pruning.SparsityConfig:
    """Geometric keep-fraction ramp: stage j uses f^((j+1)/N_PRUNE_STAGES) per
    layer, so the last stage lands exactly on the configured fractions."""
    power = (stage + 1) / N_PRUNE_STAGES
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

# Entries per block of the in-place local step, so that a block of each array
# it touches (weight, velocity, gradient, U, scratch) stays in cache between
# the step's operations.
_BLOCK = 1 << 15


def client_buffers(model: nn.ParameterSet) -> tuple:
    """client_round's working set for models shaped like model: the trained
    weights and biases, their flat velocities in gradient order, the step's
    block scratch and a dict of flat per-layer Z buffers, which client_round
    fills in a layer's first ADMM round, all of model's dtype.  Allocated
    once per run and reused by every client_round, so no large buffer is
    freed and faulted in again."""
    work = model.map(lambda lid, w, b: (np.empty_like(w), np.empty_like(b)))
    flat = [a.reshape(-1) for e in work.entries for a in (e.weight, e.bias)]
    return (work, [np.empty_like(a) for a in flat],
            np.empty(min(_BLOCK, max(a.size for a in flat)), flat[0].dtype), {})


def client_round(arch: nn.ModelArch, global_params: nn.ParameterSet,
                 x: np.ndarray, y: np.ndarray, cfg: ExperimentConfig,
                 plan: RoundPlan, admm_state: pruning.ADMMState | None,
                 mask: pruning.PruneMask | None, seed: int, buffers: tuple,
                 ) -> tuple[nn.ParameterSet, pruning.ADMMState | None]:
    """Local epochs of momentum SGD; returns the upload-ready update and the
    client's advanced ADMM state (when in the ADMM phase).

    Each minibatch is one nn.backward pass, and each layer steps inside it:
    the step is the pass's ``then`` hook, which nn runs on its helper thread
    as soon as the pass is done with that layer's weight, while this thread
    goes on to the layers below.  The hook calls numpy only, so no public
    fedprune function runs on the helper.  In admm_prune rounds a
    constrained layer's weight gradient g gains rho*((W - Z) + U), against
    Z written out densely before the first pass.  The velocity is g on the
    first step and momentum*v + g after; the step is W - lr*v.  Biases get
    the momentum and the step only.  A layer under a given mask (the shared
    mask of fine-tune rounds; an admm_prune round takes none and raises
    ValueError) steps only on the mask's support: off it the masked
    gradient is +0.0, so v stays +0.0 and W - lr*0.0 is W bit for bit, and a
    non-finite gradient there never reaches the weights.

    The weights, velocities and dense Zs live in buffers (see
    client_buffers): the received model is copied into them and updated in
    place; no gradient array is written to.  The hooks run one at a time, so
    the step's block scratch has one user.  A dense round's update is those
    buffers' own arrays, valid until the next client_round call with the
    same buffers; encode it before then.

    Everything runs in the buffers' dtype, which run_experiment takes from
    the broadcast, float32: nn computes in the dtype of the weights it is
    given, a first ADMM round's Z and U take the received model's, and lr,
    momentum and rho are cast to it, so no float64 scalar promotes a step.

    admm_prune rounds end with one pruning.admm_update of the trained
    weights: Z <- project(W + U), then U <- U + W - Z.  Every sparse upload,
    that is every round with a plan.stage_cfg, is projected to that config's
    per-layer budgets into new arrays; the rest (warmup, dense) upload the
    trained model as it is.

    ADMM state is the client's own and outlives the round: admm_init runs
    only in the client's first ADMM round, and a client that sits out rounds
    resumes from the Z, U and step of its last participation, however stale.
    """
    rng = np.random.default_rng(seed)
    n = len(y)
    params, velocities, scratch, z_buffers = buffers
    lr, momentum = scratch.dtype.type(cfg.lr), scratch.dtype.type(cfg.momentum)
    penalized: dict[str, np.ndarray] = {}    # constrained layer -> flat dense Z
    rho = None
    if plan.phase == PHASE_ADMM:
        if mask is not None:    # the shared mask is set only after the last ADMM round
            raise ValueError("an admm_prune round takes no mask")
        if admm_state is None:
            admm_state = pruning.admm_init(global_params, plan.stage_cfg)
        rho = scratch.dtype.type(plan.stage_cfg.rho)
        for lid, z in admm_state.z.items():    # dense allocates on a layer's first use
            penalized[lid] = z_buffers[lid] = z.dense(out=z_buffers.get(lid)).reshape(-1)
    masked = mask.layers if mask is not None else {}

    # per layer, one slot for its weight and one for its bias: (flat tensor,
    # mask support or None, then the stepped entries: the tensor or its
    # support, their velocity, dense Z or None, U or None)
    slots, vs = {}, iter(velocities)
    for e, got in zip(params.entries, global_params.entries):
        np.copyto(e.weight, got.weight)
        np.copyto(e.bias, got.bias)
        lid, w, b = e.layer_id, e.weight.reshape(-1), e.bias.reshape(-1)
        z, on, stepped, v = penalized.get(lid), None, w, next(vs)
        u = admm_state.u[lid].reshape(-1) if z is not None else None
        if lid in masked:
            on = np.flatnonzero(masked[lid])
            stepped, v = w[on], v[:on.size]
        slots[lid] = ((w, on, stepped, v, z, u), (b, None, b, next(vs), None, None))

    def step(lid: str, dw: np.ndarray, db: np.ndarray) -> None:
        # on nn's helper thread, one layer at a time, once backward is done with lid
        for (w, on, *slot), g in zip(slots[lid], (dw.reshape(-1), db)):
            _step(slot, g if on is None else g[on], first, rho, momentum, lr, scratch)
            if on is not None:
                w[on] = slot[0]

    first = True
    for _ in range(cfg.local_epochs if cfg.lr > 0 else 0):
        perm = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            ix = perm[lo:lo + cfg.batch_size]
            nn.backward(arch, params, nn.Batch(x[ix], y[ix]), then=step)
            first = False

    if plan.phase == PHASE_ADMM:
        admm_state = pruning.admm_update(params, admm_state, plan.stage_cfg)
    if plan.stage_cfg is not None:
        params = pruning.hard_prune(params, plan.stage_cfg)
    return params, admm_state


def _step(slot, g: np.ndarray, first: bool, rho: np.floating | None,
          momentum: np.floating, lr: np.floating, scratch: np.ndarray) -> None:
    """One minibatch's update of one tensor, block by block, in the per-entry
    order of the dense expressions: g + rho*((W - Z) + U), (momentum*v) + g,
    W - lr*v."""
    w, v, z, u = slot
    for lo in range(0, w.size, _BLOCK):
        hi = min(lo + _BLOCK, w.size)
        wb, vb, gb, s = w[lo:hi], v[lo:hi], g[lo:hi], scratch[:hi - lo]
        acc = vb if first else s      # the first step's velocity is the gradient
        if z is not None:
            np.subtract(wb, z[lo:hi], out=acc)
            np.add(acc, u[lo:hi], out=acc)
            np.multiply(acc, rho, out=acc)
            np.add(gb, acc, out=acc)
        elif first:
            acc[...] = gb
        else:
            acc = gb
        if not first:
            np.multiply(vb, momentum, out=vb)
            np.add(vb, acc, out=vb)
        np.multiply(vb, lr, out=s)
        np.subtract(wb, s, out=wb)


# ---------------------------------------------------------------------------
# Network emulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkSimulator:
    """A link of bandwidth_mbps megabits/s.  transmit models a transfer's seconds
    from its byte count instead of sleeping them; 0.0 with no bandwidth set."""

    bandwidth_mbps: float | None

    def transmit(self, nbytes: int) -> float:
        return nbytes * 8 / (self.bandwidth_mbps * 1e6) if self.bandwidth_mbps else 0.0


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
    global_params: nn.ParameterSet | None    # None in an aborted run's partial result
    mask: pruning.PruneMask | None
    final_accuracy: float
    compression_rate: float
    finalize_s: float          # wall time of the final hard prune and evaluation


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
    its wall time went.  A client attests the enclave and agrees its key in
    the first round that samples it, so a client never sampled holds no key.
    Clients train on the broadcast's fp32 values, in fp32, and each
    evaluation runs on the model as published, its fp32 cast; the enclave
    averages and keeps the global model in fp64.
    Fixed seeds give identical metrics apart from wall-clock timing fields.
    An unrecoverable error raises ExperimentAborted carrying the rounds
    completed so far.
    """
    metrics: list[RoundMetrics] = []
    try:
        return _run_rounds(cfg, dataset, progress, metrics)
    except Exception as exc:
        partial = ExperimentResult(cfg, metrics, None, None, np.nan, np.nan, np.nan)
        raise ExperimentAborted(exc, partial) from exc


@contextmanager
def _span(times: dict[str, float], time_field: str):
    """Add the wall time spent in the block to times[time_field]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        times[time_field] += time.perf_counter() - t0


def _received(layers: tuple[codec.WireLayer, ...]) -> nn.ParameterSet:
    """A dense broadcast's layers as its clients train on them: the fp32
    values the wire carried, viewed in place."""
    return nn.ParameterSet(tuple(nn.LayerParams(x.layer_id, x.values.reshape(x.shape), x.bias)
                                 for x in layers))


def _fp32(params: nn.ParameterSet) -> nn.ParameterSet:
    """params as publish_model sends them: every tensor cast to fp32."""
    return params.map(lambda lid, w, b: (w.astype(np.float32), b.astype(np.float32)))


def _run_rounds(cfg: ExperimentConfig, dataset, progress,
                metrics: list[RoundMetrics]) -> ExperimentResult:
    dataset = dataset if dataset is not None else cfg.load_dataset()
    arch = cfg.build_arch()
    ss = np.random.SeedSequence(cfg.seed)
    s_partition, s_init, s_sample, s_crypto = (int(s.generate_state(1)[0])
                                               for s in ss.spawn(4))

    if cfg.partition == "iid":
        part = partition_iid(len(dataset.train_y), cfg.num_clients, s_partition)
    else:
        part = partition_noniid(dataset.train_y, cfg.num_clients, s_partition)
    counts = {cid: len(ix) for cid, ix in part.items()}

    eval_x, eval_y = dataset.test_x, dataset.test_y
    if cfg.eval_examples is not None:
        eval_x, eval_y = eval_x[:cfg.eval_examples], eval_y[:cfg.eval_examples]

    crypto_rng = np.random.default_rng(s_crypto)
    manager = secure.KeyManager(seed=s_crypto)
    channels: dict[int, secure.ClientChannel] = {}   # made in a client's first sampled round
    ctx = enclave.EnclaveContext(key_manager=manager)
    net = NetworkSimulator(cfg.bandwidth_mbps)
    sample_rng = np.random.default_rng(s_sample)

    global_params = nn.init_model(arch, s_init)
    schema = codec.schema(global_params)
    buffers = None      # every client trains in these, made at the first broadcast
    mask: pruning.PruneMask | None = None   # set by the hard prune before fine-tune rounds
    admm_states: dict[int, pruning.ADMMState] = {}

    for rnd in range(cfg.total_rounds()):
        plan = plan_round(cfg, rnd)
        round_t0 = time.perf_counter()
        times = dict.fromkeys(RoundMetrics.TIME_FIELDS, 0.0)

        # broadcast: publish dense global model out of the enclave
        with _span(times, "ocall_s"):
            blob_down = enclave.publish_model(global_params, ctx)
        with _span(times, "local_training_s"):   # every client decodes the same blob
            received = _received(codec.decode_layers(blob_down, schema)[0])
            buffers = buffers or client_buffers(received)
        selected = np.sort(sample_rng.choice(cfg.num_clients, cfg.clients_per_round,
                                             replace=False))

        if plan.stage_cfg is not None:
            encode, fmt = codec.csr_encode, codec.FORMAT_CSR
        else:
            encode, fmt = codec.dense_encode, codec.FORMAT_DENSE
        ctx.budgets = (plan.stage_cfg.budgets(global_params)
                       if plan.stage_cfg is not None else None)
        records, rejections = [], []
        bytes_up = 0
        for cid in selected:
            cid = int(cid)
            if cid not in channels:
                with _span(times, "attestation_s"):
                    channels[cid] = secure.attest_and_exchange(cid, manager, crypto_rng)
            times["transmission_s"] += net.transmit(len(blob_down))
            with _span(times, "local_training_s"):
                ix = part[cid]
                update, state = client_round(
                    arch, received, dataset.train_x[ix], dataset.train_y[ix], cfg, plan,
                    admm_states.get(cid), mask, _client_seed(cfg.seed, rnd, cid), buffers)
                if state is not None:
                    admm_states[cid] = state
            with _span(times, "provisioning_s"):
                sealed = channels[cid].encrypt_update(encode(update), rnd, fmt).to_bytes()
            times["transmission_s"] += net.transmit(len(sealed))
            bytes_up += len(sealed)
            # the enclave opens each upload as it arrives, so no more than one
            # sealed upload waits on the untrusted side
            with _span(times, "ecall_s"):
                loaded, rejected = enclave.enclave_load(
                    [secure.EncryptedUpdate.from_bytes(sealed)], ctx, counts)
            records += loaded.records
            rejections += rejected
            del update, sealed, loaded      # the round keeps only the records

        for rej in rejections:
            log.warning("round %d: client %d rejected: %s", rnd, rej.client_id, rej.reason)
        if not records:
            raise RuntimeError(f"round {rnd}: all client updates rejected")
        with _span(times, "aggregation_s"):
            global_params = enclave.fedavg(enclave.AggregationInput(tuple(records)))
            del records             # the round's records die with fedavg's input
            if plan.finalize_after:
                global_params, mask = pruning.final_hard_prune(global_params, cfg.sparsity)
                admm_states.clear()    # no ADMM round is left to use a Z or U

        keep = (pruning.overall_keep_fraction(global_params, plan.stage_cfg)
                if plan.stage_cfg is not None else 1.0)
        with _span(times, "eval_s"):
            acc = nn.evaluate(arch, _fp32(global_params), eval_x, eval_y, cfg.eval_batch_size)
        rm = RoundMetrics(
            round_index=rnd, phase=plan.phase, accuracy=acc, keep_fraction=keep,
            bytes_up=bytes_up, bytes_down=cfg.clients_per_round * len(blob_down),
            dense_bytes_up=cfg.clients_per_round * (
                len(blob_down) + secure.HEADER.size + secure.TAG_SIZE),
            trusted_peak_bytes=ctx.peak_bytes,
            # wall time plus the modeled link time, which no clock measures
            total_s=time.perf_counter() - round_t0 + times["transmission_s"],
            rejections=tuple((rej.client_id, rej.reason) for rej in rejections), **times)
        metrics.append(rm)
        if progress:
            progress(rm)

    final_params = global_params
    final = {"finalize_s": 0.0}
    with _span(final, "finalize_s"):
        if cfg.mode == "masked" and cfg.sparsity is not None and cfg.pruning_rounds > 0:
            # baseline updates are masked per client; report the hard-pruned model
            final_params, mask = pruning.final_hard_prune(global_params, cfg.sparsity)
        final_acc = nn.evaluate(arch, _fp32(final_params), eval_x, eval_y, cfg.eval_batch_size)
    try:
        cr = pruning.compression_rate(final_params)
    except ValueError:
        cr = 1.0
    return ExperimentResult(cfg, metrics, final_params, mask, final_acc, cr, final["finalize_s"])
