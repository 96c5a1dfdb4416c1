"""Per-layer (weight, bias) tensors, shared by nn and the trusted modules."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LayerParams:
    layer_id: str
    weight: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class ParameterSet:
    """Ordered per-layer (weight, bias) tensors; also used for gradients."""

    entries: tuple[LayerParams, ...]

    def __getitem__(self, layer_id: str) -> LayerParams:
        for e in self.entries:
            if e.layer_id == layer_id:
                return e
        raise KeyError(layer_id)

    def param_count(self) -> int:
        return sum(e.weight.size + e.bias.size for e in self.entries)

    def weight_count(self) -> int:
        return sum(e.weight.size for e in self.entries)

    def nonzero_weight_count(self) -> int:
        return sum(int(np.count_nonzero(e.weight)) for e in self.entries)

    def map(self, fn) -> "ParameterSet":
        """New set with fn(layer_id, weight, bias) -> (weight', bias')."""
        out = []
        for e in self.entries:
            w, b = fn(e.layer_id, e.weight, e.bias)
            out.append(LayerParams(e.layer_id, w, b))
        return ParameterSet(tuple(out))

    def allfinite(self) -> bool:
        return all(np.isfinite(e.weight).all() and np.isfinite(e.bias).all()
                   for e in self.entries)
