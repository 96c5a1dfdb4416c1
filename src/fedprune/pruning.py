"""Cardinality-constrained weight pruning.

The training-time loss is augmented with (rho/2)||W - Z + U||^2 per layer;
the local step (federation.client_round) adds its gradient rho*(W - Z + U),
against Z written out densely once per round (KeptEntries.dense).  Here, one
update per round (admm_update) puts Z back on the cardinality set via
Euclidean projection (top-k by magnitude) and accumulates the constraint
violation into the dual tensors U.  Between rounds Z is held as the kept
entries of its projection (KeptEntries).
A magnitude-masked per-round projection of local updates serves as the
baseline method.  Biases are never pruned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import ParameterSet


@dataclass(frozen=True)
class SparsityConfig:
    """Per-layer keep fractions (fraction of weights left non-zero) plus the
    penalty coefficient rho.  Budgets n_i are derived against a concrete
    ParameterSet since they depend on layer sizes."""

    keep: dict[str, float]      # layer_id -> keep fraction in (0, 1]
    rho: float = 1e-3

    def __post_init__(self):
        if not 0 < self.rho < float("inf"):
            raise ValueError(f"rho must be finite and > 0, not {self.rho}")
        if not self.keep:
            raise ValueError("at least one layer must be constrained")
        for lid, f in self.keep.items():
            if not 0.0 < f <= 1.0:
                raise ValueError(f"keep fraction for {lid} out of (0,1]: {f}")

    def budgets(self, params: ParameterSet) -> dict[str, int]:
        """n_i per constrained layer: at least 1 and at most the layer size."""
        out = {}
        for lid, frac in self.keep.items():
            size = params[lid].weight.size   # KeyError if cfg names a missing layer
            out[lid] = min(size, max(1, int(round(frac * size))))
        return out


@dataclass(frozen=True)
class KeptEntries:
    """A tensor stored as its entries other than +0.0: sorted flat indices
    and their values.  A kept -0.0 is stored, because W - (-0.0) and
    W - (+0.0) differ at W = -0.0; every other entry is +0.0."""

    shape: tuple[int, ...]
    index: np.ndarray      # sorted flat indices
    value: np.ndarray      # the tensor's values there

    @classmethod
    def of(cls, t: np.ndarray) -> "KeptEntries":
        flat = t.reshape(-1)
        index = np.flatnonzero((flat != 0.0) | np.signbit(flat))
        return cls(t.shape, index, flat[index])

    def dense(self, out: np.ndarray | None = None) -> np.ndarray:
        """The tensor, written into out (contiguous, of its size) if given."""
        out = np.empty(self.shape, self.value.dtype) if out is None else out
        out.fill(0.0)
        out.reshape(-1)[self.index] = self.value
        return out


@dataclass(frozen=True)
class ADMMState:
    z: dict[str, KeptEntries]
    u: dict[str, np.ndarray]
    step: int = 0


@dataclass(frozen=True)
class PruneMask:
    """Per-layer boolean tensors; True = weight retained."""

    layers: dict[str, np.ndarray]


def euclidean_project(t: np.ndarray, n_keep: int) -> np.ndarray:
    """Keep the n_keep largest-magnitude entries in place, zero the rest.

    Selection is by threshold, in linear time: the n_keep-th largest
    magnitude is found by partition, every entry strictly above it is kept,
    and the rest of the budget goes to the entries equal to it with the
    lowest flat indices, so results are platform-independent.  NaN ranks
    below every magnitude, zero included.  This is the closest point of t in
    L2 among all tensors with at most n_keep non-zeros.
    """
    if not 0 <= n_keep <= t.size:
        raise ValueError(f"n_keep={n_keep} out of range for size {t.size}")
    if n_keep == t.size:
        return t.copy()
    if n_keep == 0:
        return np.zeros_like(t)
    flat = t.reshape(-1)
    mag = np.abs(flat)
    mag[np.isnan(mag)] = -1.0
    positive = mag > 0
    n_pos = np.count_nonzero(positive)
    if n_keep <= n_pos < t.size / 2:    # a partition of mostly tied zeros is slow
        threshold = np.partition(mag[positive], n_pos - n_keep)[n_pos - n_keep]
    else:
        threshold = np.partition(mag, t.size - n_keep)[t.size - n_keep]
    keep = mag > threshold
    ties = np.flatnonzero(mag == threshold)
    keep[ties[:n_keep - np.count_nonzero(keep)]] = True
    out, at = np.zeros_like(flat), np.flatnonzero(keep)
    out[at] = flat[at]
    return out.reshape(t.shape)


def hard_prune(params: ParameterSet, cfg: SparsityConfig) -> ParameterSet:
    """Project every constrained layer to its budget; copy the others."""
    budgets = cfg.budgets(params)

    def prj(lid, w, b):
        if lid in budgets:
            return euclidean_project(w, budgets[lid]), b.copy()
        return w.copy(), b.copy()
    return params.map(prj)


def admm_init(params: ParameterSet, cfg: SparsityConfig) -> ADMMState:
    """Z = project(W), U = 0 for every constrained layer."""
    budgets = cfg.budgets(params)
    z = {lid: KeptEntries.of(euclidean_project(params[lid].weight, n))
         for lid, n in budgets.items()}
    u = {lid: np.zeros_like(params[lid].weight) for lid in budgets}
    return ADMMState(z=z, u=u)


def admm_update(params: ParameterSet, state: ADMMState,
                cfg: SparsityConfig) -> ADMMState:
    """One ADMM round's Z and U updates; advances the iteration counter.

    Z <- project(W + U) onto each layer's cardinality set, then
    U <- U + W - Z.  Off Z's stored entries Z is +0.0, and (U + W) - 0.0 is
    U + W bit for bit, so only the stored entries are redone as (U + W) - z."""
    budgets = cfg.budgets(params)
    z, u = {}, {}
    for lid in state.z:
        w = params[lid].weight
        z[lid] = KeptEntries.of(euclidean_project(w + state.u[lid], budgets[lid]))
        u[lid] = state.u[lid] + w
        u[lid].reshape(-1)[z[lid].index] -= z[lid].value
    return ADMMState(z=z, u=u, step=state.step + 1)


def final_hard_prune(params: ParameterSet,
                     cfg: SparsityConfig) -> tuple[ParameterSet, PruneMask]:
    """hard_prune, and the mask of the weights it kept."""
    pruned = hard_prune(params, cfg)
    mask = PruneMask({lid: pruned[lid].weight != 0.0 for lid in cfg.budgets(params)})
    return pruned, mask


def compression_rate(params: ParameterSet) -> float:
    """Total weights / non-zero weights, over prunable weight tensors.

    Biases are exempt from pruning and excluded from both counts.
    """
    nnz = params.nonzero_weight_count()
    if nnz == 0:
        raise ValueError("model has no non-zero weights")
    return params.weight_count() / nnz


def overall_keep_fraction(params: ParameterSet, cfg: SparsityConfig) -> float:
    """Non-zero fraction implied by cfg's per-layer budgets on this model."""
    budgets = cfg.budgets(params)
    total = params.weight_count()
    kept = sum(budgets.values())
    kept += sum(e.weight.size for e in params.entries if e.layer_id not in budgets)
    return kept / total
