"""Cardinality-constrained weight pruning.

The training-time loss is augmented with (rho/2)||W - Z + U||^2 per layer;
alternating updates keep Z on the cardinality set via Euclidean projection
(top-k by magnitude) and accumulate the constraint violation into the dual
tensors U.  A magnitude-masked per-round projection of local updates serves
as the baseline method.  Biases are never pruned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .nn import Gradient, ParameterSet


@dataclass(frozen=True)
class SparsityConfig:
    """Per-layer keep fractions (fraction of weights left non-zero) plus the
    penalty coefficient rho.  Budgets n_i are derived against a concrete
    ParameterSet since they depend on layer sizes."""

    keep: dict[str, float]      # layer_id -> keep fraction in (0, 1]
    rho: float = 1e-3

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
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
class ADMMState:
    z: dict[str, np.ndarray]
    u: dict[str, np.ndarray]
    rho: float
    step: int = 0


@dataclass(frozen=True)
class PruneMask:
    """Per-layer boolean tensors; True = weight retained."""

    layers: dict[str, np.ndarray]

    def nonzero_count(self) -> int:
        return sum(int(m.sum()) for m in self.layers.values())


def euclidean_project(t: np.ndarray, n_keep: int) -> np.ndarray:
    """Keep the n_keep largest-magnitude entries in place, zero the rest.

    Ties are broken toward the lowest flat index so results are
    platform-independent.  This is the closest point of t in L2 among all
    tensors with at most n_keep non-zeros.
    """
    if not 0 <= n_keep <= t.size:
        raise ValueError(f"n_keep={n_keep} out of range for size {t.size}")
    if n_keep == t.size:
        return t.copy()
    flat = t.reshape(-1)
    # stable sort on -|t|: equal magnitudes keep ascending index order
    order = np.argsort(-np.abs(flat), kind="stable")
    out = np.zeros_like(flat)
    keep = order[:n_keep]
    out[keep] = flat[keep]
    return out.reshape(t.shape)


def _project_params(params: ParameterSet, budgets: dict[str, int]) -> ParameterSet:
    def prj(lid, w, b):
        if lid in budgets:
            return euclidean_project(w, budgets[lid]), b.copy()
        return w.copy(), b.copy()
    return params.map(prj)


def admm_init(params: ParameterSet, cfg: SparsityConfig) -> ADMMState:
    """Z = project(W), U = 0 for every constrained layer."""
    budgets = cfg.budgets(params)
    z = {lid: euclidean_project(params[lid].weight, n) for lid, n in budgets.items()}
    u = {lid: np.zeros_like(params[lid].weight) for lid in budgets}
    return ADMMState(z=z, u=u, rho=cfg.rho)


def admm_reg_gradient(params: ParameterSet, state: ADMMState) -> Gradient:
    """Gradient of the augmented penalty: rho*(W - Z + U); zero for biases
    and for unconstrained layers."""
    def g(lid, w, b):
        if lid in state.z:
            return state.rho * (w - state.z[lid] + state.u[lid]), np.zeros_like(b)
        return np.zeros_like(w), np.zeros_like(b)
    return params.map(g)


def admm_z_step(params: ParameterSet, state: ADMMState,
                cfg: SparsityConfig) -> ADMMState:
    """Z <- project(W + U) onto each layer's cardinality set."""
    budgets = cfg.budgets(params)
    z = {lid: euclidean_project(params[lid].weight + state.u[lid], budgets[lid])
         for lid in state.z}
    return replace(state, z=z)


def admm_u_step(params: ParameterSet, state: ADMMState) -> ADMMState:
    """U <- U + W - Z; advances the iteration counter."""
    u = {lid: state.u[lid] + params[lid].weight - state.z[lid] for lid in state.u}
    return replace(state, u=u, step=state.step + 1)


def final_hard_prune(params: ParameterSet,
                     cfg: SparsityConfig) -> tuple[ParameterSet, PruneMask]:
    """Project every constrained layer to its budget and record the mask."""
    budgets = cfg.budgets(params)
    pruned = _project_params(params, budgets)
    mask = PruneMask({lid: pruned[lid].weight != 0.0 for lid in budgets})
    return pruned, mask


def apply_mask(params: ParameterSet, mask: PruneMask) -> ParameterSet:
    """Zero the weights (or gradient entries) at masked-out positions.

    Pruned positions are set by selection, not multiplied by zero, so a
    non-finite value there cannot survive (NaN * 0 is NaN).
    """
    def f(lid, w, b):
        if lid in mask.layers:
            return np.where(mask.layers[lid], w, 0.0), b.copy()
        return w.copy(), b.copy()
    return params.map(f)


def compression_rate(obj: ParameterSet | PruneMask) -> float:
    """Total weights / non-zero weights, over prunable weight tensors.

    Biases are exempt from pruning and excluded from both counts.  For a
    PruneMask the totals are taken over the masked layers only.
    """
    if isinstance(obj, PruneMask):
        total = sum(m.size for m in obj.layers.values())
        nnz = obj.nonzero_count()
    else:
        total = obj.weight_count()
        nnz = obj.nonzero_weight_count()
    if nnz == 0:
        raise ValueError("model has no non-zero weights")
    return total / nnz


def overall_keep_fraction(params: ParameterSet, cfg: SparsityConfig) -> float:
    """Non-zero fraction implied by cfg's per-layer budgets on this model."""
    budgets = cfg.budgets(params)
    total = params.weight_count()
    kept = sum(budgets.values())
    kept += sum(e.weight.size for e in params.entries if e.layer_id not in budgets)
    return kept / total
